"""Feedforward regression network with per-layer dropout.

ReLU hidden layers, scalar linear output, trained by mini-batch SGD with
Nesterov momentum, a cyclical step-decay learning-rate schedule, and early
stopping on validation RMSE. Dropout is the inverted kind: kept activations
are rescaled by 1/(1-p) so stochastic and deterministic passes share the
same expectation scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .seeds import rng_for


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass(frozen=True)
class NetConfig:
    hidden_sizes: tuple = (1000, 1000, 100, 10)
    dropout_p: float = 0.25
    lr0: float = 0.005
    decay_factor: float = 0.6
    decay_every: int = 200
    cycle_length: int = 1000
    max_epochs: int = 4000
    patience: int = 300
    momentum: float = 0.9
    batch_fraction: float = 0.15
    rmse_gate: float = 1.2

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if not self.hidden_sizes or min(self.hidden_sizes) < 1:
            raise ValueError("hidden_sizes: all layer widths must be >= 1")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must be in [0, 1)")
        if not 0.0 < self.batch_fraction <= 1.0:
            raise ValueError("batch_fraction must be in (0, 1]")
        if self.lr0 < 0:
            # lr0 == 0 is allowed: it is the standard way to exercise the
            # early-stopping and convergence-gate paths.
            raise ValueError("lr0 must be >= 0")
        if not 0.0 < self.decay_factor < 1.0:
            raise ValueError("decay_factor must be in (0, 1)")
        if self.decay_every < 1 or self.cycle_length < 1:
            raise ValueError("decay_every and cycle_length must be >= 1")
        if self.max_epochs < 1 or self.patience < 1:
            raise ValueError("max_epochs and patience must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")


@dataclass
class MLPModel:
    """Weights/biases per layer, input -> hidden... -> scalar output."""

    weights: list
    biases: list
    config: NetConfig
    input_dim: int


@dataclass
class TrainingLog:
    learning_rates: list
    train_losses: list
    val_rmses: list
    stop_reason: str = "max_epochs"
    best_epoch: int = 0
    best_val_rmse: float = math.inf
    converged: bool = False

    @property
    def n_epochs(self) -> int:
        return len(self.val_rmses)


def init_mlp(input_dim: int, config: NetConfig, seed: int) -> MLPModel:
    """He-initialized network: weight std sqrt(2/fan_in), zero biases."""
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    rng = rng_for(seed, "init")
    dims = [input_dim] + list(config.hidden_sizes) + [1]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out)) * math.sqrt(2.0 / fan_in))
        biases.append(np.zeros(fan_out))
    return MLPModel(weights=weights, biases=biases, config=config, input_dim=input_dim)


def draw_masks(model: MLPModel, n: int, rng: np.random.Generator) -> list:
    """Fresh per-instance keep-masks for each hidden layer (keep prob 1-p)."""
    p = model.config.dropout_p
    return [np.ones((n, w), dtype=bool) if p == 0.0 else rng.random((n, w)) >= p
            for w in model.config.hidden_sizes]


def _features(model: MLPModel, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.input_dim:
        raise ValueError(f"expected {model.input_dim} features, got {X.shape[1]}")
    return X


def input_layer(model: MLPModel, X) -> np.ndarray:
    """First hidden activation relu(X @ W0 + b0), before any dropout mask.

    Dropout acts only after hidden layers, so this is the same in every pass
    of a dropout ensemble and can be computed once per batch.
    """
    X = _features(model, X)
    return np.maximum(X @ model.weights[0] + model.biases[0], 0.0)


def forward_batch(model: MLPModel, X: np.ndarray, masks=None, h0=None) -> np.ndarray:
    """Predictions for a batch; masks=None means deterministic (no dropout).

    h0, if given, must be input_layer(model, X); the pass then starts from it
    instead of recomputing the input layer. X is checked either way.
    """
    X = _features(model, X)
    a = input_layer(model, X) if h0 is None else h0
    p = model.config.dropout_p
    for layer in range(len(model.config.hidden_sizes)):
        if layer:
            a = np.maximum(a @ model.weights[layer] + model.biases[layer], 0.0)
        if masks is not None:
            # in place, the bits of a * mask / (1 - p); h0 is shared, not written
            a = a * masks[layer] if a is h0 else np.multiply(a, masks[layer], out=a)
            a /= 1.0 - p
    return (a @ model.weights[-1] + model.biases[-1]).ravel()


def lr_at_epoch(config: NetConfig, epoch: int) -> float:
    """Cyclical step decay: lr0 * factor^floor((epoch mod cycle)/every)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    steps = (epoch % config.cycle_length) // config.decay_every
    return config.lr0 * config.decay_factor**steps


def compute_gradients(model: MLPModel, X: np.ndarray, y: np.ndarray, masks):
    """Exact MSE gradients for the masked network (masks held fixed).

    Loss is mean((pred - y)^2) over the batch. Returns (weight_grads,
    bias_grads, batch_loss).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.shape[0] != y.shape[0]:
        raise ValueError("batch features and labels must have the same length")
    p = model.config.dropout_p
    n_hidden = len(model.config.hidden_sizes)

    activations = [X]  # post-dropout activation feeding each layer
    pre = []
    a = X
    for layer in range(n_hidden):
        z = a @ model.weights[layer] + model.biases[layer]
        pre.append(z)
        a = np.maximum(z, 0.0)
        if masks is not None:
            a *= masks[layer]
            a /= 1.0 - p
        activations.append(a)
    pred = (a @ model.weights[-1] + model.biases[-1]).ravel()

    B = len(y)
    resid = pred - y
    loss = float(np.mean(resid**2))
    delta = (2.0 * resid / B)[:, None]

    w_grads = [None] * (n_hidden + 1)
    b_grads = [None] * (n_hidden + 1)
    w_grads[-1] = activations[-1].T @ delta
    b_grads[-1] = delta.sum(axis=0)
    da = delta @ model.weights[-1].T
    for layer in range(n_hidden - 1, -1, -1):
        if masks is not None:
            da *= masks[layer]
            da /= 1.0 - p
        da *= pre[layer] > 0.0
        w_grads[layer] = activations[layer].T @ da
        b_grads[layer] = da.sum(axis=0)
        if layer > 0:
            da = da @ model.weights[layer].T
    return w_grads, b_grads, loss


def _val_rmse(model: MLPModel, X: np.ndarray, y: np.ndarray) -> float:
    pred = forward_batch(model, X)
    return float(np.sqrt(np.mean((pred - y) ** 2)))


def train(train_set: Dataset, val_set: Dataset, config: NetConfig, seed: int):
    """Train with SGD + Nesterov momentum, early stopping on validation RMSE.

    Returns (model, log); the model carries the parameters achieving the best
    validation RMSE, and log.converged reflects best_val_rmse < rmse_gate.
    """
    if train_set.n_features != val_set.n_features:
        raise ValueError("train and validation feature dimensions differ")
    model = init_mlp(train_set.n_features, config, seed)
    X, y = train_set.features, train_set.labels
    Xv, yv = val_set.features, val_set.labels
    n = len(y)
    batch_size = max(1, math.ceil(config.batch_fraction * n))
    rng = rng_for(seed, "train")

    params = model.weights + model.biases  # the live arrays, updated in place
    vel = [np.zeros_like(a) for a in params]
    mu = config.momentum

    log = TrainingLog(learning_rates=[], train_losses=[], val_rmses=[])
    best_w = [w.copy() for w in model.weights]
    best_b = [b.copy() for b in model.biases]
    best_rmse = math.inf
    best_epoch = -1

    for epoch in range(config.max_epochs):
        lr = lr_at_epoch(config, epoch)
        perm = rng.permutation(n)
        sq_err_sum = 0.0
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            masks = draw_masks(model, len(idx), rng)
            w_grads, b_grads, loss = compute_gradients(model, X[idx], y[idx], masks)
            sq_err_sum += loss * len(idx)
            # Nesterov step a -= lr * (g + mu * v) after v = mu * v + g, with
            # one temporary per array. Products and sums commute exactly, so
            # this order gives the same bits as those expressions. A step
            # buffer kept per array would hold a second copy of the network
            # through training and raise peak memory by about as much.
            for a, v, g in zip(params, vel, w_grads + b_grads):
                v *= mu
                v += g
                step = v * mu
                step += g
                step *= lr
                a -= step
        epoch_loss = sq_err_sum / n
        if not math.isfinite(epoch_loss):
            raise TrainingDivergedError(f"non-finite training loss at epoch {epoch}")
        val_rmse = _val_rmse(model, Xv, yv)

        log.learning_rates.append(lr)
        log.train_losses.append(epoch_loss)
        log.val_rmses.append(val_rmse)

        if val_rmse < best_rmse:
            best_rmse = val_rmse
            best_epoch = epoch
            best_w = [w.copy() for w in model.weights]
            best_b = [b.copy() for b in model.biases]
        elif epoch - best_epoch >= config.patience:
            log.stop_reason = "early_stop"
            break
    else:
        log.stop_reason = "max_epochs"

    model.weights = best_w
    model.biases = best_b
    log.best_epoch = best_epoch
    log.best_val_rmse = best_rmse
    log.converged = best_rmse < config.rmse_gate
    return model, log

