import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from dropconf import net
from dropconf.data import Dataset, make_synthetic, random_split
from dropconf.net import (
    NetConfig,
    TrainingLog,
    compute_gradients,
    draw_masks,
    forward_batch,
    init_mlp,
    lr_at_epoch,
    train,
)
from dropconf.seeds import rng_for

from oracles import fd_gradients

TINY = NetConfig(hidden_sizes=(8,), dropout_p=0.0, max_epochs=50, patience=50)


class TestInit:
    def test_default_architecture_shapes(self):
        model = init_mlp(2048, NetConfig(), seed=0)
        shapes = [w.shape for w in model.weights]
        assert shapes == [(2048, 1000), (1000, 1000), (1000, 100), (100, 10), (10, 1)]
        assert all(np.all(b == 0) for b in model.biases)

    def test_shape_chaining(self):
        model = init_mlp(3, NetConfig(hidden_sizes=(4,)), seed=0)
        assert [w.shape for w in model.weights] == [(3, 4), (4, 1)]

    def test_deterministic(self):
        a = init_mlp(5, TINY, seed=3)
        b = init_mlp(5, TINY, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_he_scale(self):
        model = init_mlp(400, NetConfig(hidden_sizes=(500,)), seed=1)
        assert abs(model.weights[0].std() - math.sqrt(2 / 400)) < 0.005


class TestForward:
    def test_no_dropout_limit(self):
        model = init_mlp(4, NetConfig(hidden_sizes=(6, 3), dropout_p=0.0), seed=2)
        x = np.arange(4.0).reshape(1, -1)
        masks = draw_masks(model, 1, rng_for(0, "m"))
        assert all(m.all() for m in masks)
        assert forward_batch(model, x, masks)[0] == forward_batch(model, x)[0]

    def test_inverted_dropout_expectation_linear(self):
        # single hidden layer, weights arranged so activations stay positive:
        # ReLU is identity there and the dropped expectation is exact.
        cfg = NetConfig(hidden_sizes=(20,), dropout_p=0.5)
        model = init_mlp(3, cfg, seed=4)
        model.weights[0] = np.abs(model.weights[0])
        model.weights[1] = np.abs(model.weights[1])
        x = np.array([0.5, 1.0, 2.0])
        det = forward_batch(model, x)[0]
        X = np.tile(x, (10000, 1))  # one row per stochastic pass
        outs = forward_batch(model, X, draw_masks(model, len(X), rng_for(9, "mc")))
        se = outs.std() / math.sqrt(len(outs))
        assert abs(outs.mean() - det) < 3 * se

    def test_zero_weights_gives_output_bias(self):
        model = init_mlp(4, NetConfig(hidden_sizes=(5,), dropout_p=0.3), seed=0)
        for w in model.weights:
            w[:] = 0.0
        model.biases[-1][:] = 7.25
        x = np.ones((1, 4))
        det = forward_batch(model, x)[0]
        sto = forward_batch(model, x, draw_masks(model, 1, rng_for(1, "z")))[0]
        assert det == 7.25 and sto == 7.25

    def test_dimension_mismatch(self):
        model = init_mlp(4, TINY, seed=0)
        with pytest.raises(ValueError):
            forward_batch(model, np.ones((2, 5)))


class TestSchedule:
    def test_epoch_0(self):
        assert lr_at_epoch(NetConfig(), 0) == 0.005

    def test_cycle_reset_at_1000(self):
        assert lr_at_epoch(NetConfig(), 1000) == 0.005

    def test_two_decay_steps(self):
        assert lr_at_epoch(NetConfig(), 450) == pytest.approx(0.0018, abs=1e-15)

    def test_periodicity_and_blocks(self):
        cfg = NetConfig()
        for e in range(0, 2500, 37):
            assert lr_at_epoch(cfg, e) == lr_at_epoch(cfg, e + cfg.cycle_length)
            # piecewise constant on decay_every blocks
            assert lr_at_epoch(cfg, e) == lr_at_epoch(cfg, e - e % cfg.decay_every)


class TestGradients:
    def test_zero_error_batch(self):
        model = init_mlp(3, NetConfig(hidden_sizes=(4,), dropout_p=0.0), seed=5)
        X = np.random.default_rng(0).standard_normal((6, 3))
        y = forward_batch(model, X)
        acts, deltas, b_grads, loss = compute_gradients(model, X, y, None)
        w_grads = [a.T @ d for a, d in zip(acts, deltas)]
        assert loss == 0.0
        assert all(np.allclose(g, 0) for g in w_grads + b_grads)

    @pytest.mark.parametrize("p", [0.25, 0.5])
    def test_zero_error_masked_batch(self, p):
        # a training step and a dropout pass share one layer loop: labels
        # predicted under some masks have a loss of exactly 0 under the same
        model = init_mlp(3, NetConfig(hidden_sizes=(9, 7, 5), dropout_p=p), seed=5)
        X = np.random.default_rng(0).standard_normal((16, 3))
        masks = draw_masks(model, len(X), rng_for(4, "masks"))
        _, _, _, loss = compute_gradients(model, X, forward_batch(model, X, masks), masks)
        assert loss == 0.0

    def test_dimension_mismatch(self):
        model = init_mlp(4, TINY, seed=0)
        with pytest.raises(ValueError, match="expected 4 features, got 5"):
            compute_gradients(model, np.ones((2, 5)), np.ones(2), None)

    def test_hand_derivative_single_neuron(self):
        # identity-free check: one input feeding the output layer directly
        model = init_mlp(3, NetConfig(hidden_sizes=(1,), dropout_p=0.0), seed=1)
        # make the hidden unit a pure pass-through of the dot product
        model.weights[0] = np.array([[0.2], [0.4], [0.6]])
        model.biases[0][:] = 10.0  # keeps ReLU active
        model.weights[1] = np.array([[1.0]])
        x = np.array([[1.0, 2.0, 3.0]])
        y = np.array([0.5])
        pred = forward_batch(model, x)[0]
        acts, deltas, _, _ = compute_gradients(model, x, y, None)
        w_grads = [a.T @ d for a, d in zip(acts, deltas)]
        expected = 2 * (pred - 0.5) * x[0]
        assert np.allclose(w_grads[0].ravel(), expected)

    def test_finite_difference_oracle(self):
        from oracles import min_abs_preactivation

        rng = np.random.default_rng(7)
        checked = 0
        attempt = 0
        while checked < 5:
            attempt += 1
            d = int(rng.integers(2, 6))
            cfg = NetConfig(hidden_sizes=(5, 3), dropout_p=0.4)
            model = init_mlp(d, cfg, seed=attempt)
            X = rng.standard_normal((4, d))
            y = rng.standard_normal(4)
            masks = draw_masks(model, 4, rng_for(attempt, "masks"))
            if min_abs_preactivation(model, X, masks) < 1e-3:
                continue  # FD is unreliable across a ReLU kink
            acts, deltas, b_g, _ = compute_gradients(model, X, y, masks)
            w_g = [a.T @ d for a, d in zip(acts, deltas)]
            w_o, b_o = fd_gradients(model, X, y, masks)
            for a, b in zip(w_g + b_g, w_o + b_o):
                denom = np.maximum(np.abs(b), 1e-3)
                assert np.max(np.abs(a - b) / denom) < 1e-4
            checked += 1


class TestTrain:
    def test_toy_linear_problem(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((260, 4))
        y = X @ np.array([1.0, -0.5, 0.25, 2.0])
        from dropconf.data import Dataset

        tr = Dataset(ids=tuple(f"t{i}" for i in range(200)), labels=y[:200], features=X[:200])
        va = Dataset(ids=tuple(f"v{i}" for i in range(60)), labels=y[200:], features=X[200:])
        cfg = NetConfig(hidden_sizes=(8,), dropout_p=0.0, max_epochs=500, patience=500)
        model, log = train(tr, va, cfg, seed=11)
        assert log.best_val_rmse < 0.05

    def test_zero_lr_early_stop_at_epoch_2(self):
        ds = make_synthetic(40, 2, seed=0)
        cfg = NetConfig(hidden_sizes=(4,), dropout_p=0.0, lr0=0.0, patience=1, max_epochs=100)
        _, log = train(ds.subset(range(30)), ds.subset(range(30, 40)), cfg, seed=1)
        assert log.stop_reason == "early_stop"
        assert log.n_epochs == 2

    def test_convergence_gate_flags_crippled_run(self):
        from dropconf.data import Dataset

        base = make_synthetic(60, 2, seed=1)
        # shift labels far from the untrainable net's outputs
        shifted = Dataset(ids=base.ids, labels=base.labels + 10.0, features=base.features)
        cfg = NetConfig(hidden_sizes=(4,), dropout_p=0.0, lr0=0.0, patience=1,
                        max_epochs=10, rmse_gate=1.2)
        va = shifted.subset(range(45, 60))
        model, log = train(shifted.subset(range(45)), va, cfg, seed=2)
        assert log.best_val_rmse > 1.2
        assert not log.converged
        # the returned model is the one log.best_val_rmse was measured on
        pred = forward_batch(model, va.features)
        assert float(np.sqrt(np.mean((pred - va.labels) ** 2))) == log.best_val_rmse

    def test_best_weights_contract(self):
        ds = make_synthetic(120, 3, "homoscedastic", 0.5, seed=4)
        sp = random_split(120, seed=4)
        cfg = NetConfig(hidden_sizes=(6,), dropout_p=0.1, max_epochs=60, patience=60)
        model, log = train(ds.subset(sp.train), ds.subset(sp.validation), cfg, seed=5)
        va = ds.subset(sp.validation)
        pred = forward_batch(model, va.features)
        returned_rmse = float(np.sqrt(np.mean((pred - va.labels) ** 2)))
        assert abs(returned_rmse - min(log.val_rmses)) < 1e-12

    def test_early_stopping_contract(self):
        ds = make_synthetic(120, 3, "homoscedastic", 0.5, seed=6)
        sp = random_split(120, seed=6)
        cfg = NetConfig(hidden_sizes=(6,), dropout_p=0.1, max_epochs=400, patience=20)
        _, log = train(ds.subset(sp.train), ds.subset(sp.validation), cfg, seed=7)
        if log.stop_reason == "early_stop":
            assert (log.n_epochs - 1) - log.best_epoch <= cfg.patience

    def test_log_lrs_match_schedule(self):
        ds = make_synthetic(60, 2, "homoscedastic", 0.2, seed=8)
        cfg = NetConfig(hidden_sizes=(4,), dropout_p=0.0, max_epochs=30, patience=30,
                        decay_every=5, cycle_length=12)
        _, log = train(ds.subset(range(45)), ds.subset(range(45, 60)), cfg, seed=9)
        for e, lr in enumerate(log.learning_rates):
            assert lr == lr_at_epoch(cfg, e)

    def test_determinism(self):
        ds = make_synthetic(80, 3, "homoscedastic", 0.3, seed=10)
        sp = random_split(80, seed=10)
        cfg = NetConfig(hidden_sizes=(5,), dropout_p=0.2, max_epochs=20, patience=20)
        m1, _ = train(ds.subset(sp.train), ds.subset(sp.validation), cfg, seed=11)
        m2, _ = train(ds.subset(sp.train), ds.subset(sp.validation), cfg, seed=11)
        assert all(np.array_equal(a, b) for a, b in zip(m1.weights, m2.weights))
        assert all(np.array_equal(a, b) for a, b in zip(m1.biases, m2.biases))

    def test_divergence_is_a_stop_reason(self):
        # a non-finite training loss once raised, and the attempt's log and
        # best-epoch snapshot were lost; its overflows once also wrote six
        # RuntimeWarnings before the stop reason reported them
        ds = make_synthetic(60, 3, "homoscedastic", 0.3, 1)
        cfg = NetConfig(hidden_sizes=(8,), lr0=1.0, max_epochs=50, patience=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model, log = train(ds.subset(range(40)), ds.subset(range(40, 60)), cfg, seed=3)
        assert log.stop_reason == "diverged" and log.converged is False
        # epoch 0's loss is finite but its validation RMSE is not; epoch 1 diverges
        assert log.n_epochs == 1 and log.val_rmses == [math.inf]
        init = init_mlp(3, cfg, seed=3)
        for a, b in zip(model.weights + model.biases, init.weights + init.biases):
            assert np.array_equal(a, b) and np.isfinite(a).all()

    def test_returned_weights_are_best_epoch_snapshot(self):
        # Training runs past the best epoch and stops early; a run cut off at
        # the best epoch ends on that epoch's weights. Equal results show the
        # snapshot is not changed by the in-place steps that follow it.
        ds = make_synthetic(120, 3, "homoscedastic", 0.5, seed=12)
        sp = random_split(120, seed=12)
        tr, va = ds.subset(sp.train), ds.subset(sp.validation)
        cfg = NetConfig(hidden_sizes=(6, 4), dropout_p=0.2, lr0=0.02, max_epochs=300, patience=3)
        model, log = train(tr, va, cfg, seed=13)
        assert log.stop_reason == "early_stop" and log.best_epoch < log.n_epochs - 1
        cut = dataclasses.replace(cfg, max_epochs=log.best_epoch + 1)
        ref, ref_log = train(tr, va, cut, seed=13)
        assert ref_log.best_epoch == log.best_epoch
        assert all(np.array_equal(a, b) for a, b in zip(model.weights, ref.weights))
        assert all(np.array_equal(a, b) for a, b in zip(model.biases, ref.biases))
        pred = forward_batch(model, va.features)
        assert float(np.sqrt(np.mean((pred - va.labels) ** 2))) == log.best_val_rmse


class TestConfigInvariants:
    def test_bad_dropout(self):
        with pytest.raises(ValueError):
            NetConfig(dropout_p=1.0)

    def test_bad_batch_fraction(self):
        with pytest.raises(ValueError):
            NetConfig(batch_fraction=0.0)

    def test_bad_decay(self):
        with pytest.raises(ValueError):
            NetConfig(decay_factor=1.0)

    def test_dropout_p_interval(self):
        # not a config key: each network's model job sets it to its rate
        with pytest.raises(ValueError, match=r"^dropout_p: 1\.0 not in \[0, 1\)$"):
            NetConfig(dropout_p=1.0)

    @pytest.mark.parametrize("name, value", [("max_epochs", math.inf), ("patience", math.nan),
                                             ("decay_every", math.nan),
                                             ("cycle_length", math.inf)])
    def test_nonfinite_count_rejected(self, name, value):
        # nan < 1 and inf < 1 are both false, so these once passed
        with pytest.raises(ValueError, match=rf"^{name}: {value} not in \[1, inf\)$"):
            NetConfig(**{name: value})


# The training loop as it was before weight gradients were factored and
# blocked: per-layer mask draws, dense weight gradients, one Nesterov
# temporary per array and a fresh best-epoch copy. train must match it bit
# for bit.


def oracle_masks(model, n, rng):
    p = model.config.dropout_p
    return [np.ones((n, w), dtype=bool) if p == 0.0 else rng.random((n, w)) >= p
            for w in model.config.hidden_sizes]


def oracle_gradients(model, X, y, masks):
    p = model.config.dropout_p
    n_hidden = len(model.config.hidden_sizes)
    activations, pre, a = [X], [], X
    for layer in range(n_hidden):
        z = a @ model.weights[layer] + model.biases[layer]
        pre.append(z)
        a = np.maximum(z, 0.0)
        if masks is not None:
            a *= masks[layer]
            a /= 1.0 - p
        activations.append(a)
    pred = (a @ model.weights[-1] + model.biases[-1]).ravel()
    resid = pred - y
    loss = float(np.mean(resid**2))
    delta = (2.0 * resid / len(y))[:, None]
    w_grads, b_grads = [None] * (n_hidden + 1), [None] * (n_hidden + 1)
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


def oracle_train(train_set, val_set, config, seed):
    model = init_mlp(train_set.n_features, config, seed)
    X, y = train_set.features, train_set.labels
    Xv, yv = val_set.features, val_set.labels
    n = len(y)
    batch_size = max(1, math.ceil(config.batch_fraction * n))
    rng = rng_for(seed, "train")
    params = model.weights + model.biases
    vel = [np.zeros_like(a) for a in params]
    mu = config.momentum
    log = TrainingLog(learning_rates=[], train_losses=[], val_rmses=[])
    best_w = [w.copy() for w in model.weights]
    best_b = [b.copy() for b in model.biases]
    best_rmse, best_epoch = math.inf, -1
    for epoch in range(config.max_epochs):
        lr = lr_at_epoch(config, epoch)
        perm = rng.permutation(n)
        sq_err_sum = 0.0
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            masks = oracle_masks(model, len(idx), rng)
            w_grads, b_grads, loss = oracle_gradients(model, X[idx], y[idx], masks)
            sq_err_sum += loss * len(idx)
            for a, v, g in zip(params, vel, w_grads + b_grads):
                v *= mu
                v += g
                step = v * mu
                step += g
                step *= lr
                a -= step
        epoch_loss = sq_err_sum / n
        if not math.isfinite(epoch_loss):
            log.stop_reason = "diverged"
            break
        val_rmse = float(np.sqrt(np.mean((forward_batch(model, Xv) - yv) ** 2)))
        log.learning_rates.append(lr)
        log.train_losses.append(epoch_loss)
        log.val_rmses.append(val_rmse)
        if val_rmse < best_rmse:
            best_rmse, best_epoch = val_rmse, epoch
            best_w = [w.copy() for w in model.weights]
            best_b = [b.copy() for b in model.biases]
        elif epoch - best_epoch >= config.patience:
            log.stop_reason = "early_stop"
            break
    else:
        log.stop_reason = "max_epochs"
    model.weights, model.biases = best_w, best_b
    log.best_epoch, log.best_val_rmse = best_epoch, best_rmse
    log.converged = log.stop_reason != "diverged" and best_rmse < config.rmse_gate
    return model, log


# (input width, hidden sizes): every weight in one row block; weights of
# several blocks; a 600-wide layer over 33 inputs, whose one-row tail block
# is merged into the block before it
ORACLE_WIDTHS = ((3, (5,)), (37, (1100, 20)), (33, (600, 3)))
ORACLE_BATCHES = (1, 2, 7, 36)
# (input width, hidden sizes, training rows, batch rows): every width at every
# batch size over 36 rows, and the dense_grid benchmark network, 3,500 rows in
# batches of 525 and a 350-row tail, whose weights and biases share one chunk
ORACLE_CASES = [(d, hidden, 36, batch) for d, hidden in ORACLE_WIDTHS
                for batch in ORACLE_BATCHES] + [(8, (16, 8), 3500, 525)]


def oracle_mismatches() -> list:
    """Every (width, hidden sizes, batch size, dropout p) of the grid at which
    train and oracle_train differ in any weight, bias or log entry."""
    bad = []
    for (d, hidden, n, batch), p in ((c, p) for c in ORACLE_CASES for p in (0.0, 0.25)):
        rng = np.random.default_rng(d + batch)
        X = rng.standard_normal((n + n // 3, d))
        y = X[:, 0] + 0.5 * rng.standard_normal(len(X))
        tr = Dataset(ids=tuple(range(n)), labels=y[:n], features=X[:n])
        va = Dataset(ids=tuple(range(n // 3)), labels=y[n:], features=X[n:])
        # ceil((batch - 0.5) / n * n) == batch rows per step
        cfg = NetConfig(hidden_sizes=hidden, dropout_p=p, batch_fraction=(batch - 0.5) / n,
                        max_epochs=3, patience=3)
        (m1, log1), (m2, log2) = train(tr, va, cfg, seed=batch), oracle_train(tr, va, cfg, seed=batch)
        same = all(np.array_equal(a, b) for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases))
        if not same or log1 != log2:
            bad.append([d, list(hidden), batch, p])
    return bad


ORACLE_CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import test_net
print(json.dumps(test_net.oracle_mismatches()))
"""


class TestBlockedTraining:
    def test_grid_exercises_one_and_several_row_blocks(self):
        counts = {(d, hidden, batch): [len(net._row_blocks(*w.shape, batch)) for w in init_mlp(
            d, NetConfig(hidden_sizes=hidden), 0).weights]
            for d, hidden in ORACLE_WIDTHS for batch in ORACLE_BATCHES}
        assert all(counts[(3, (5,), batch)] == [1, 1] for batch in ORACLE_BATCHES)
        assert all(max(counts[(33, (600, 3), batch)]) > 1 for batch in ORACLE_BATCHES)
        assert all(max(counts[(37, (1100, 20), batch)]) > 1 for batch in ORACLE_BATCHES)

    def test_blocks_start_at_multiples_of_16_rows_and_merge_a_one_row_tail(self):
        # 33 rows of a 600-wide weight: 16-row blocks would leave one row last
        assert net._row_blocks(33, 600, 36) == [(0, 16), (16, 33)]
        assert net._row_blocks(100, 100, 36) == [(0, 100)]
        assert all(r % 16 == 0 for r, _ in net._row_blocks(1024, 1000, 36))

    def test_chunks_tile_the_flat_parameter_vector(self):
        # pieces pack in order while a chunk stays within _BLOCK elements: the
        # two row blocks of the 33 x 600 weight (9,600 and 10,200) do not share
        # one, and all pieces of a small network do
        model = init_mlp(33, NetConfig(hidden_sizes=(600, 3)), 0)
        chunks = net._chunks(model.weights, 36)
        assert [[part[:3] for part in c] for c in chunks] == [
            [(0, 0, 16)],
            [(0, 16, 33), (0, None, None), (1, 0, 600), (1, None, None), (2, 0, 3), (2, None, None)]]
        parts = [part for c in chunks for part in c]
        assert [p[3] for p in parts] == [0] + [p[4] for p in parts[:-1]]
        assert parts[-1][4] == model.weights[0].base.size
        wide = init_mlp(1024, NetConfig(hidden_sizes=(1000, 100)), 0)
        assert max(c[-1][4] - c[0][3] for c in net._chunks(wide.weights, 36)) <= net._BLOCK
        assert len(net._chunks(init_mlp(8, NetConfig(hidden_sizes=(16, 8)), 0).weights, 525)) == 1

    def test_parameters_are_views_of_one_flat_vector(self):
        model = init_mlp(5, NetConfig(hidden_sizes=(4, 3)), 2)
        flat = model.weights[0].base
        rng = rng_for(2, "init")
        at = 0
        for w, b in zip(model.weights, model.biases):
            assert w.base is flat and b.base is flat
            assert np.array_equal(w, rng.standard_normal(w.shape) * math.sqrt(2.0 / w.shape[0]))
            assert np.shares_memory(w, flat[at : at + w.size]) and not b.any()
            at += w.size + b.size
        assert at == flat.size

    @pytest.mark.parametrize("threads", ["1", None])
    def test_matches_dense_oracle_bit_for_bit(self, threads):
        # OpenBLAS may pick another kernel for a small product, and another
        # split of the work with more threads: run with one and the default
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(here, os.pardir, "src")
        proc = subprocess.run([sys.executable, "-c", ORACLE_CHILD, src, here], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_row_blocks_are_rows_of_the_whole_product(self):
        # the dnn_wide shapes: a batch of 36 rows through 1024-1000-1000-100-10-1
        rng = np.random.default_rng(5)
        dims = [1024, 1000, 1000, 100, 10, 1]
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            a = rng.standard_normal((36, fan_in)) * (rng.random((36, fan_in)) < 0.5)
            d = rng.standard_normal((36, fan_out))
            whole = a.T @ d
            blocks = net._row_blocks(fan_in, fan_out, 36)
            assert len(blocks) > 1 or fan_in * fan_out <= net._BLOCK
            for r, e in blocks:
                assert np.array_equal(np.matmul(a.T[r:e], d, out=np.empty((e - r, fan_out))),
                                      whole[r:e])

    def test_peak_memory_is_three_parameter_sets(self):
        # a 1,024-input (1000, 1000, 100, 10) network on 240 rows for 2 epochs.
        # The bound was fixed before this test first ran: the weights, the
        # velocity and the best-epoch snapshot, plus 4 MiB for data and
        # activations. The dense loop holds two more sets and a temporary.
        rng = np.random.default_rng(3)
        X = (rng.random((300, 1024)) < 0.1).astype(float)
        y = X[:, :20].sum(axis=1)
        tr = Dataset(ids=tuple(range(240)), labels=y[:240], features=X[:240])
        va = Dataset(ids=tuple(range(60)), labels=y[240:], features=X[240:])
        cfg = NetConfig(max_epochs=2, patience=2)
        dims = [1024, 1000, 1000, 100, 10, 1]
        param_bytes = 8 * sum(i * o + o for i, o in zip(dims[:-1], dims[1:]))
        bound = 3 * param_bytes + 4 * 2**20
        peaks = []
        for fit in (train, oracle_train):
            tracemalloc.start()
            try:
                fit(tr, va, cfg, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < bound < peaks[1], (peaks, bound)
