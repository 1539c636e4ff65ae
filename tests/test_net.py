import dataclasses
import math

import numpy as np
import pytest

from dropconf.data import make_synthetic, random_split
from dropconf.net import (
    NetConfig,
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
        w_grads, b_grads, loss = compute_gradients(model, X, y, None)
        assert loss == 0.0
        assert all(np.allclose(g, 0) for g in w_grads + b_grads)

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
        w_grads, _, _ = compute_gradients(model, x, y, None)
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
            w_g, b_g, _ = compute_gradients(model, X, y, masks)
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
