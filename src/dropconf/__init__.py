"""Dropout conformal predictors for regression.

Trains a dropout-regularized feedforward regressor, builds test-time dropout
ensembles, calibrates exponential-normalized nonconformity scores, and emits
prediction intervals with guaranteed coverage, alongside a random-forest
cross-conformal baseline and a full evaluation/reporting harness.
"""

from .data import Dataset, SplitIndices, load_table, make_synthetic, random_split
from .net import NetConfig, MLPModel, TrainingLog, init_mlp, lr_at_epoch, train
from .ensemble import EnsemblePrediction, mc_dropout_predict
from .forest import ForestConfig, Forest, fit_forest, forest_predict, oof_calibration
from .conformal import (
    CalibrationModel,
    nonconformity,
    build_calibration,
    alpha_at_level,
    intervals_for,
    dropout_icp,
    rf_ccp,
)
from .evaluate import (
    EvaluationReport,
    rmse,
    coverage,
    calibration_curve,
    width_stats,
    screen_counts,
    aggregate_runs,
)
from .config import ExperimentConfig, parse_config
from .runner import run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
