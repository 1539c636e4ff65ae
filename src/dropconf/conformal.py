"""Conformal calculus on arrays: exponential-normalized nonconformity
scores, percentile calibration, interval bounds, and the two end-to-end
pipelines (dropout ICP and random-forest cross-conformal), which differ only
in their ensembles and share one conformal step.

The score for an instance is |y - y_hat| / e^sigma, where sigma is the
ensemble standard deviation of that instance's own passes. Since e^sigma >= 1
every score is bounded by the raw residual, so the largest calibration score
never exceeds the largest calibration residual. The interval at level cl is
y_hat +/- e^sigma * alpha_cl. A pipeline returns only its two factors, scale
= e^sigma per test instance and alpha_cl per level; intervals_for forms the
(n, 2) bounds from them where a report is evaluated.

e^sigma is taken with math.exp, one instance at a time: np.exp can differ
from it in the last bit, and every emitted byte derives from these values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .data import Dataset
from .ensemble import EnsemblePrediction, mc_dropout_predict
from .forest import ForestConfig, fit_forest, forest_predict, oof_calibration
from .net import MLPModel
from .seeds import derive_seed


@dataclass(frozen=True)
class Calibration:
    """Per-instance calibration rows in ascending order of alpha, ties in row
    order: the rows of the calibration dump. ``alpha`` is the sorted score
    array that sets every interval."""

    ids: tuple
    y: np.ndarray
    y_hat: np.ndarray
    sigma: np.ndarray
    alpha: np.ndarray


@dataclass
class ConformalResult:
    """The sorted calibration, the test predictions and the interval factors:
    ``scale`` per test instance and ``alpha`` (cl -> score) per level."""

    calibration: Calibration
    test_prediction: EnsemblePrediction
    scale: np.ndarray
    alpha: dict


def _exp(x: np.ndarray) -> np.ndarray:
    """math.exp of every element of x."""
    return np.array([math.exp(v) for v in x.ravel().tolist()]).reshape(x.shape)


def nonconformity(y, y_hat, sigma):
    """alpha = |y - y_hat| / e^sigma, element-wise."""
    y, y_hat, sigma = (np.asarray(a, dtype=np.float64) for a in (y, y_hat, sigma))
    if np.any(sigma < 0):
        raise ValueError("sigma must be >= 0")
    if not (np.isfinite(y).all() and np.isfinite(y_hat).all() and np.isfinite(sigma).all()):
        raise ValueError("nonconformity inputs must be finite")
    # exp(-sigma) underflows to 0 for huge sigma, giving alpha ~ 0 without
    # overflow; equivalent to clamping the exponent.
    return np.abs(y - y_hat) * _exp(-np.minimum(sigma, 745.0))


def build_calibration(y, preds: EnsemblePrediction, ids=None) -> Calibration:
    """The calibration rows with their nonconformity scores, sorted by score
    with ties in row order."""
    y = np.asarray(y, dtype=np.float64)
    if len(y) != len(preds.means):
        raise ValueError("labels and predictions must have the same length")
    if len(y) < 1:
        raise ValueError("calibration requires at least one score")
    alphas = nonconformity(y, preds.means, preds.stds)
    ids = tuple(range(len(y)) if ids is None else ids)
    order = np.argsort(alphas, kind="stable")
    return Calibration(
        ids=tuple(ids[i] for i in order.tolist()), y=y[order], y_hat=preds.means[order],
        sigma=preds.stds[order], alpha=alphas[order],
    )


def rank_at_level(n: int, cl: float) -> int:
    """k = ceil(cl*(n+1)) with cl the decimal its repr shows (0.2 is 1/5, not
    the float just above), at least 1: the rank among n ascending scores of
    the score that sets level cl; k > n means no score does."""
    return max(1, math.ceil(Fraction(repr(float(cl))) * (n + 1)))


def alpha_at_level(alphas: np.ndarray, cl: float) -> float:
    """The k-th smallest of the ascending scores for k = rank_at_level, or
    +inf if k > n.

    The +inf case yields an unbounded interval, preserving validity when the
    calibration set is too small for the requested confidence level.
    """
    if not 0.0 < cl < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {cl}")
    k = rank_at_level(len(alphas), cl)
    if k > len(alphas):
        return math.inf
    return float(alphas[k - 1])


def interval_factors(preds: EnsemblePrediction, alphas: np.ndarray, cl_list) -> tuple:
    """(scale, alpha) of the test predictions from the ascending scores:
    scale = math.exp(min(sigma, 700)) per test instance and alpha: cl -> the
    score alpha_at_level gives, looked up once per level."""
    if not np.isfinite(preds.means).all():
        raise ValueError("y_hat must be finite")
    return (_exp(np.minimum(preds.stds, 700.0)),
            {float(cl): alpha_at_level(alphas, cl) for cl in cl_list})


def intervals_for(y_hat: np.ndarray, scale: np.ndarray, alpha: dict) -> dict:
    """cl -> (n, 2) array of [lower, upper] = y_hat -/+ scale * alpha[cl], the
    product taken first; +inf alpha gives the whole line."""
    halves = ((cl, scale * a) for cl, a in alpha.items())  # one level's alive at a time
    return {cl: np.column_stack((y_hat - h, y_hat + h)) for cl, h in halves}


def _conformal(cal_set: Dataset, cal_pred, test_pred, cl_list) -> ConformalResult:
    """The conformal step shared by both pipelines: score the calibration
    rows, then take the test intervals' factors from the sorted scores."""
    cal = build_calibration(cal_set.labels, cal_pred, ids=cal_set.ids)
    return ConformalResult(cal, test_pred, *interval_factors(test_pred, cal.alpha, cl_list))


def dropout_icp(
    model: MLPModel,
    val: Dataset,
    test: Dataset,
    n_passes: int,
    cl_list,
    seed: int,
) -> ConformalResult:
    """Inductive conformal prediction from test-time dropout ensembles.

    Calibrates on the validation set's dropout passes, then takes the test
    set's interval factors from an independent pass stream. Point predictions
    are the test-pass means.
    """
    val_pred = mc_dropout_predict(model, val.features, n_passes, derive_seed(seed, "cal"))
    test_pred = mc_dropout_predict(model, test.features, n_passes, derive_seed(seed, "test"))
    return _conformal(val, val_pred, test_pred, cl_list)


def rf_ccp(
    train: Dataset,
    test: Dataset,
    config: ForestConfig,
    k: int,
    cl_list,
    seed: int,
) -> ConformalResult:
    """Random-forest cross-conformal prediction.

    Calibration scores come from k-fold out-of-fold residuals and per-tree
    spread; test predictions come from a single forest fit on all the
    training data, dropped before the fold forests grow.
    """
    test_pred = forest_predict(fit_forest(train, config, derive_seed(seed, "final")), test.features)
    oof = oof_calibration(train, config, k, derive_seed(seed, "oof"))
    return _conformal(train, oof, test_pred, cl_list)
