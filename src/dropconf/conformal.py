"""Conformal calculus on arrays: exponential-normalized nonconformity
scores, percentile calibration, interval bounds, and the two end-to-end
pipelines (dropout ICP and random-forest cross-conformal), which share one
calibration builder.

The score for an instance is |y - y_hat| / e^sigma, where sigma is the
ensemble standard deviation of that instance's own passes. Since e^sigma >= 1
every score is bounded by the raw residual, so the largest calibration score
never exceeds the largest calibration residual. The interval at level cl is
y_hat +/- e^sigma * alpha_cl, kept as an (n_test, 2) array of
[lower, upper] per level.

e^sigma is taken with math.exp, one instance at a time: np.exp can differ
from it in the last bit, and every emitted byte derives from these values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .ensemble import EnsemblePrediction, mc_dropout_predict
from .forest import ForestConfig, fit_forest, forest_predict, oof_calibration
from .net import MLPModel
from .seeds import derive_seed


@dataclass(frozen=True)
class CalibrationModel:
    """Ascending-sorted nonconformity scores from the calibration partition."""

    alphas: np.ndarray

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=np.float64)
        if alphas.size < 1:
            raise ValueError("calibration requires at least one score")
        if not np.all(np.isfinite(alphas)) or np.any(alphas < 0):
            raise ValueError("nonconformity scores must be finite and >= 0")
        if np.any(np.diff(alphas) < 0):
            raise ValueError("alphas must be sorted ascending")
        object.__setattr__(self, "alphas", alphas)
        self.alphas.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class CalibrationDetail:
    """Per-instance calibration triples in original row order (for dumps)."""

    ids: tuple
    y: np.ndarray
    y_hat: np.ndarray
    sigma: np.ndarray
    alpha: np.ndarray


@dataclass
class ConformalResult:
    """Intervals per confidence level plus the calibration artifacts."""

    intervals: dict  # cl -> ndarray (n_test, 2) of [lower, upper]
    calibration_detail: CalibrationDetail
    test_prediction: EnsemblePrediction


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


def build_calibration(y, preds: EnsemblePrediction, ids=None):
    """Sorted nonconformity scores over all calibration instances."""
    y = np.asarray(y, dtype=np.float64)
    if len(y) != len(preds.means):
        raise ValueError("labels and predictions must have the same length")
    alphas = nonconformity(y, preds.means, preds.stds)
    if ids is None:
        ids = tuple(range(len(y)))
    detail = CalibrationDetail(
        ids=tuple(ids), y=y, y_hat=preds.means, sigma=preds.stds, alpha=alphas
    )
    return CalibrationModel(alphas=np.sort(alphas, kind="stable")), detail


def alpha_at_level(cal: CalibrationModel, cl: float) -> float:
    """The k-th smallest score for k = ceil(cl*(n+1)), or +inf if k > n.

    The +inf case yields an unbounded interval, preserving validity when the
    calibration set is too small for the requested confidence level.
    """
    if not 0.0 < cl < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {cl}")
    k = math.ceil(cl * (cal.n + 1) - 1e-9)
    if k > cal.n:
        return math.inf
    return float(cal.alphas[k - 1])


def intervals_for(preds: EnsemblePrediction, cal: CalibrationModel, cl_list) -> dict:
    """Intervals y_hat +/- e^sigma * alpha_cl per confidence level, each an
    (n_test, 2) array of [lower, upper]; +inf alpha gives the whole line."""
    if not np.isfinite(preds.means).all():
        raise ValueError("y_hat must be finite")
    scale = _exp(np.minimum(preds.stds, 700.0))
    out = {}
    for cl in cl_list:
        half = scale * alpha_at_level(cal, cl)
        out[float(cl)] = np.column_stack((preds.means - half, preds.means + half))
    return out


def dropout_icp(
    model: MLPModel,
    val: Dataset,
    test: Dataset,
    n_passes: int,
    cl_list,
    seed: int,
) -> ConformalResult:
    """Inductive conformal prediction from test-time dropout ensembles.

    Calibrates on the validation set's dropout passes, then builds intervals
    for the test set from an independent pass stream. Point predictions are
    the test-pass means.
    """
    val_pred = mc_dropout_predict(model, val.features, n_passes, derive_seed(seed, "cal"))
    cal, detail = build_calibration(val.labels, val_pred, ids=val.ids)
    test_pred = mc_dropout_predict(model, test.features, n_passes, derive_seed(seed, "test"))
    return ConformalResult(
        intervals=intervals_for(test_pred, cal, cl_list),
        calibration_detail=detail,
        test_prediction=test_pred,
    )


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
    training data.
    """
    oof = oof_calibration(train, config, k, derive_seed(seed, "oof"))
    cal, detail = build_calibration(train.labels, oof, ids=train.ids)
    final = fit_forest(train, config, derive_seed(seed, "final"))
    test_pred = forest_predict(final, test.features)
    return ConformalResult(
        intervals=intervals_for(test_pred, cal, cl_list),
        calibration_detail=detail,
        test_prediction=test_pred,
    )
