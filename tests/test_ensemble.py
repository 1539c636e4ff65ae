import numpy as np
import pytest

from dropconf import ensemble
from dropconf.ensemble import from_passes, mc_dropout_predict
from dropconf.net import NetConfig, draw_masks, forward_batch, init_mlp
from dropconf.seeds import rng_for


def tiny_model(dropout_p, seed=0):
    return init_mlp(3, NetConfig(hidden_sizes=(6, 4), dropout_p=dropout_p), seed=seed)


class TestMcDropout:
    def test_zero_dropout_all_passes_identical(self):
        model = tiny_model(0.0)
        X = np.random.default_rng(0).standard_normal((5, 3))
        pred = mc_dropout_predict(model, X, 10, seed=1)
        assert np.all(pred.passes == pred.passes[:, [0]])
        # identical passes; std is 0 up to the mean's rounding noise
        assert np.all(pred.stds < 1e-12)

    def test_zero_dropout_one_forward_pass(self, monkeypatch):
        # p=0 computes one pass for all columns; the bits match a per-pass
        # loop over all-ones masks, summaries included
        model = init_mlp(4, NetConfig(hidden_sizes=(7, 5), dropout_p=0.0), seed=3)
        X = np.random.default_rng(5).standard_normal((9, 4))
        loop = np.column_stack([
            forward_batch(model, X, draw_masks(model, len(X), rng_for(2, "pass", p)))
            for p in range(12)
        ])
        calls = []

        def counting_forward_batch(*args, **kwargs):
            calls.append(1)
            return forward_batch(*args, **kwargs)

        monkeypatch.setattr(ensemble, "forward_batch", counting_forward_batch)
        pred = mc_dropout_predict(model, X, 12, seed=2)
        assert len(calls) == 1
        assert np.array_equal(pred.passes, loop)
        expected = from_passes(loop)
        assert np.array_equal(pred.means, expected.means)
        assert np.array_equal(pred.stds, expected.stds)

    def test_default_member_count(self):
        model = tiny_model(0.2)
        X = np.zeros((2, 3))
        pred = mc_dropout_predict(model, X, 100, seed=2)
        assert pred.n_members == 100
        assert pred.passes.shape == (2, 100)

    def test_summaries_match_pass_matrix(self):
        model = tiny_model(0.5)
        X = np.random.default_rng(1).standard_normal((8, 3))
        pred = mc_dropout_predict(model, X, 40, seed=3)
        assert np.allclose(pred.means, pred.passes.mean(axis=1), atol=1e-12)
        assert np.allclose(pred.stds, pred.passes.std(axis=1), atol=1e-12)

    def test_deterministic_per_seed(self):
        model = tiny_model(0.3)
        X = np.random.default_rng(2).standard_normal((4, 3))
        a = mc_dropout_predict(model, X, 20, seed=9)
        b = mc_dropout_predict(model, X, 20, seed=9)
        assert np.array_equal(a.passes, b.passes)
        c = mc_dropout_predict(model, X, 20, seed=10)
        assert not np.array_equal(a.passes, c.passes)

    def test_scheduling_independence(self):
        # pass p of a long run equals the same pass computed in a shorter run:
        # streams are keyed by (seed, pass index), not execution order
        model = tiny_model(0.4)
        X = np.random.default_rng(3).standard_normal((6, 3))
        full = mc_dropout_predict(model, X, 15, seed=4)
        prefix = mc_dropout_predict(model, X, 7, seed=4)
        assert np.array_equal(full.passes[:, :7], prefix.passes)

    def test_spread_monotone_in_dropout_p(self):
        X = np.random.default_rng(4).standard_normal((30, 3))
        mean_spread = []
        for p in (0.1, 0.25, 0.5):
            model = tiny_model(p, seed=7)
            pred = mc_dropout_predict(model, X, 100, seed=5)
            mean_spread.append(pred.stds.mean())
        assert mean_spread[0] < mean_spread[1] < mean_spread[2]


class TestInputLayerOnce:
    """mc_dropout_predict reuses the input layer across passes; it must give
    the same bits as full forward passes with the same masks."""

    @staticmethod
    def brute_force_passes(model, X, n_passes, seed):
        return np.column_stack([
            forward_batch(model, X, draw_masks(model, len(X), rng_for(seed, "pass", p)))
            for p in range(n_passes)
        ])

    @pytest.mark.parametrize("hidden", [(9,), (12, 7, 4)])
    @pytest.mark.parametrize("dropout_p", [0.0, 0.25])
    def test_passes_bit_identical_to_full_forward(self, hidden, dropout_p):
        model = init_mlp(5, NetConfig(hidden_sizes=hidden, dropout_p=dropout_p), seed=8)
        for layer, b in enumerate(model.biases):
            b[:] = np.random.default_rng(layer).standard_normal(b.shape) * 0.1
        X = np.random.default_rng(6).standard_normal((11, 5))
        pred = mc_dropout_predict(model, X, 16, seed=21)
        assert np.array_equal(pred.passes, self.brute_force_passes(model, X, 16, seed=21))

    def test_wrong_feature_width_rejected(self):
        model = tiny_model(0.25)
        with pytest.raises(ValueError, match="expected 3 features"):
            mc_dropout_predict(model, np.ones((4, 5)), 3, seed=0)


class TestFromPasses:
    def test_row_example(self):
        pred = from_passes(np.array([[0.0, 2.0]]))
        assert pred.means[0] == 1.0 and pred.stds[0] == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            from_passes(np.empty((3, 0)))
