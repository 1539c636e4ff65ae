"""Feedforward regression network with per-layer dropout.

ReLU hidden layers, scalar linear output, trained by mini-batch SGD with
Nesterov momentum, a cyclical step-decay learning-rate schedule, and early
stopping on validation RMSE. Training stops early, at the epoch cap, or on
divergence (a non-finite training loss), and returns its log either way.
Dropout is the inverted kind: kept activations are rescaled by 1/(1-p) so
stochastic and deterministic passes share the same expectation scale.
Training steps, validation and dropout passes run the hidden layers through
one loop, ``_hidden_layers``. Every weight and bias is a view of one flat
vector; training holds two more (velocity, best-epoch snapshot) and steps all
three a chunk at a time: a weight's block of rows, or a run of small weights
and biases, whose gradients it forms in a small reused buffer while in cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, bounded, check_bounds
from .seeds import rng_for


@dataclass(frozen=True)
class NetConfig:
    hidden_sizes: tuple = bounded((1000, 1000, 100, 10), 1)
    dropout_p: float = bounded(0.25, 0, 1)
    lr0: float = bounded(0.005, 0)  # 0 exercises early stopping and the convergence gate
    decay_factor: float = bounded(0.6, 0, 1, "()")
    decay_every: int = bounded(200, 1)
    cycle_length: int = bounded(1000, 1)
    max_epochs: int = bounded(4000, 1)
    patience: int = bounded(300, 1)
    momentum: float = bounded(0.9, 0, 1)
    batch_fraction: float = bounded(0.15, 0, 1, "(]")
    rmse_gate: float = bounded(1.2, 0, math.inf, "(]")

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if not self.hidden_sizes:
            raise ValueError("hidden_sizes: at least one layer width required")
        check_bounds(self)


@dataclass
class MLPModel:
    """Weights/biases per layer, input -> hidden... -> scalar output."""

    weights: list
    biases: list
    config: NetConfig


@dataclass
class TrainingLog:
    learning_rates: list
    train_losses: list
    val_rmses: list
    stop_reason: str = "max_epochs"  # unless train sets "early_stop" or "diverged"
    best_epoch: int = 0
    best_val_rmse: float = math.inf
    converged: bool = False

    @property
    def n_epochs(self) -> int:
        return len(self.val_rmses)


def init_mlp(input_dim: int, config: NetConfig, seed: int) -> MLPModel:
    """He-initialized network: weight std sqrt(2/fan_in), zero biases, each
    weight and bias a view of one flat vector laid out W0, b0, W1, b1, ..."""
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    rng = rng_for(seed, "init")
    dims = [input_dim] + list(config.hidden_sizes) + [1]
    sizes = [size for i, o in zip(dims, dims[1:]) for size in (i * o, o)]
    views = np.split(np.zeros(sum(sizes)), np.cumsum(sizes)[:-1])
    weights = [rng.standard_normal(out=v.reshape(i, o)) for v, i, o in zip(views[::2], dims, dims[1:])]
    for w in weights:
        w *= math.sqrt(2.0 / len(w))  # drawn into its view: the stream and bits of a fresh draw
    return MLPModel(weights=weights, biases=views[1::2], config=config)


def draw_masks(model: MLPModel, n: int, rng: np.random.Generator) -> list:
    """Fresh per-instance keep-masks for each hidden layer (keep prob 1-p),
    from one draw in the stream order of one draw per layer."""
    p, widths = model.config.dropout_p, model.config.hidden_sizes
    keep = rng.random(n * sum(widths)) >= p if p else np.ones(n * sum(widths), dtype=bool)
    return [keep[n * (e - w) : n * e].reshape(n, w) for e, w in zip(np.cumsum(widths).tolist(), widths)]


def _relu_layer(a: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """relu(a @ w + b), computed in the product's own array."""
    z = a @ w
    z += b
    return np.maximum(z, 0.0, out=z)


def _features(model: MLPModel, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.weights[0].shape[0]:
        raise ValueError(f"expected {model.weights[0].shape[0]} features, got {X.shape[1]}")
    return X


def input_layer(model: MLPModel, X) -> np.ndarray:
    """First hidden activation relu(X @ W0 + b0), before any dropout mask.

    Dropout acts only after hidden layers, so this is the same in every pass
    of a dropout ensemble and can be computed once per batch.
    """
    return _relu_layer(_features(model, X), model.weights[0], model.biases[0])


def _hidden_layers(model: MLPModel, a: np.ndarray, masks):
    """Yield each hidden layer's activation, relu then a * mask / (1 - p) unless
    masks is None, from the first one, ``a = input_layer(model, X)``, never written."""
    p = model.config.dropout_p
    for layer in range(len(model.config.hidden_sizes)):
        if layer:
            a = _relu_layer(a, model.weights[layer], model.biases[layer])
        if masks is not None:
            a = np.multiply(a, masks[layer], out=a if layer else None)
            a /= 1.0 - p
        yield a


def forward_batch(model: MLPModel, X: np.ndarray, masks=None, h0=None) -> np.ndarray:
    """Predictions for a batch; masks=None means deterministic (no dropout).

    h0, if given, must be input_layer(model, X); the pass then starts from it
    instead of recomputing the input layer. X is checked either way.
    """
    X = _features(model, X)
    for a in _hidden_layers(model, input_layer(model, X) if h0 is None else h0, masks):
        pass  # only the last activation is kept; each earlier one is freed in turn
    return (a @ model.weights[-1] + model.biases[-1]).ravel()


def lr_at_epoch(config: NetConfig, epoch: int) -> float:
    """Cyclical step decay: lr0 * factor^floor((epoch mod cycle)/every)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    steps = (epoch % config.cycle_length) // config.decay_every
    return config.lr0 * config.decay_factor**steps


def compute_gradients(model: MLPModel, X: np.ndarray, y: np.ndarray, masks):
    """Exact MSE gradients for the masked network (masks held fixed).

    Loss is mean((pred - y)^2) over the batch. Returns (acts, deltas,
    bias_grads, batch_loss); the gradient of ``weights[l]`` is
    ``acts[l].T @ deltas[l]``, left for the caller to form.
    """
    X = _features(model, X)
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.shape[0] != y.shape[0]:
        raise ValueError("batch features and labels must have the same length")
    p = model.config.dropout_p
    n_hidden = len(model.config.hidden_sizes)

    acts = [X, *_hidden_layers(model, input_layer(model, X), masks)]  # each layer's input
    pred = (acts[-1] @ model.weights[-1] + model.biases[-1]).ravel()

    resid = pred - y
    loss = float(np.mean(resid**2))

    deltas = [(2.0 * resid / len(y))[:, None]]
    for layer in range(n_hidden - 1, -1, -1):
        da = deltas[0] @ model.weights[layer + 1].T
        if masks is not None:
            da *= masks[layer]
            da /= 1.0 - p
        # a kept unit's activation is positive where its pre-activation is; a
        # dropped unit's da is a signed zero or NaN, unchanged by 0 or 1
        da *= acts[layer + 1] > 0.0
        deltas.insert(0, da)
    return acts, deltas, [d.sum(axis=0) for d in deltas], loss


_BLOCK = 16384  # elements in one row block of a weight gradient


def _row_blocks(fan_in: int, fan_out: int, batch: int) -> list:
    """(start, end) row blocks of ~_BLOCK elements of a (fan_in, fan_out) weight
    gradient over ``batch`` rows, at multiples of 16 rows, one row only if the
    weight has. BLAS may round a block's product differently from the whole (one
    row goes to gemv, a small product to another kernel): unless a probe on
    random factors gives the whole product's bits, the one block is the whole."""
    rows = max(16, _BLOCK // fan_out // 16 * 16)
    cuts = [0, *range(rows, fan_in - 1, rows), fan_in]
    blocks = list(zip(cuts[:-1], cuts[1:]))
    rng = np.random.default_rng(0)
    a, d = rng.standard_normal((batch, fan_in)), rng.standard_normal((batch, fan_out))
    whole = a.T @ d
    same = all(np.array_equal(a.T[r:e] @ d, whole[r:e]) for r, e in blocks)
    return blocks if same else [(0, fan_in)]


def _chunks(weights: list, batch: int) -> list:
    """Each weight's row blocks on ``batch`` rows, then its bias, packed in order
    into chunks of at most _BLOCK elements unless one piece is larger: lists of
    (layer, r, e, lo, hi), gradient rows r:e (bias if r is None) for flat [lo, hi)."""
    chunks, at = [], 0
    for layer, w in enumerate(weights):
        for r, e in [*_row_blocks(*w.shape, batch), (None, None)]:
            hi = at + w.shape[1] * (1 if r is None else e - r)
            if not chunks or hi - chunks[-1][0][3] > _BLOCK:
                chunks.append([])
            chunks[-1].append((layer, r, e, at, hi))
            at = hi
    return chunks


def _nesterov_step(w, v, g, mu: float, lr: float, scratch) -> None:
    """w -= lr * (g + mu * v) after v = mu * v + g, in place and with their bits
    (products and sums commute exactly); ``scratch`` holds g.size floats."""
    v *= mu
    v += g
    step = np.multiply(v, mu, out=scratch[: g.size])
    step += g
    step *= lr
    w -= step


def train(train_set: Dataset, val_set: Dataset, config: NetConfig, seed: int):
    """Train with SGD + Nesterov momentum, early stopping on validation RMSE.

    Returns (model, log): the weights of the best validation RMSE (the initial
    ones if none was finite) and a log whose stop_reason is "early_stop",
    "max_epochs" or "diverged" (an epoch's training loss was not finite; that
    epoch is not logged). log.converged: best_val_rmse < rmse_gate, not diverged.
    """
    if train_set.n_features != val_set.n_features:
        raise ValueError("train and validation feature dimensions differ")
    model = init_mlp(train_set.n_features, config, seed)
    X, y = train_set.features, train_set.labels
    n = len(y)
    batch_size = max(1, math.ceil(config.batch_fraction * n))
    rng = rng_for(seed, "train")

    params = model.weights[0].base  # the flat vector of every weight and bias, stepped in place
    # chunks by batch length (full, shorter last), probed before vel and best exist
    chunks = {k: _chunks(model.weights, k) for k in {batch_size, n % batch_size} - {0}}
    size = max(c[-1][4] - c[0][3] for k in chunks for c in chunks[k])
    grad, step = np.empty(size), np.empty(size)
    vel, best = np.zeros_like(params), params.copy()  # best: overwritten by each better epoch

    log = TrainingLog(learning_rates=[], train_losses=[], val_rmses=[], best_epoch=-1)

    # a diverging attempt overflows before its loss shows it; stop_reason reports that
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.max_epochs):
            lr = lr_at_epoch(config, epoch)
            perm = rng.permutation(n)
            sq_err_sum = 0.0
            for start in range(0, n, batch_size):
                idx = perm[start : start + batch_size]
                masks = draw_masks(model, len(idx), rng)
                acts, deltas, b_grads, loss = compute_gradients(model, X[idx], y[idx], masks)
                sq_err_sum += loss * len(idx)
                for parts in chunks[len(idx)]:
                    at, end = parts[0][3], parts[-1][4]
                    for layer, r, e, lo, hi in parts:
                        g = grad[lo - at : hi - at]
                        if r is None:
                            np.copyto(g, b_grads[layer])
                        else:
                            np.matmul(acts[layer].T[r:e], deltas[layer], out=g.reshape(e - r, -1))
                    _nesterov_step(params[at:end], vel[at:end], grad[: end - at], config.momentum,
                                   lr, step)
            epoch_loss = sq_err_sum / n
            if not math.isfinite(epoch_loss):
                log.stop_reason = "diverged"
                break
            pred = forward_batch(model, val_set.features)
            val_rmse = float(np.sqrt(np.mean((pred - val_set.labels) ** 2)))

            log.learning_rates.append(lr)
            log.train_losses.append(epoch_loss)
            log.val_rmses.append(val_rmse)

            if val_rmse < log.best_val_rmse:
                log.best_val_rmse, log.best_epoch = val_rmse, epoch
                np.copyto(best, params)
            elif epoch - log.best_epoch >= config.patience:
                log.stop_reason = "early_stop"
                break

    np.copyto(params, best)
    log.converged = log.stop_reason != "diverged" and log.best_val_rmse < config.rmse_gate
    return model, log
