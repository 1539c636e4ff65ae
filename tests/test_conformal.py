import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dropconf.conformal import (
    alpha_at_level,
    build_calibration,
    dropout_icp,
    interval_factors,
    intervals_for,
    nonconformity,
    rank_at_level,
    rf_ccp,
)
from dropconf.data import make_synthetic, random_split
from dropconf.ensemble import EnsemblePrediction, from_passes
from dropconf.evaluate import level_metrics
from dropconf.forest import ForestConfig
from dropconf.net import NetConfig, train

from oracles import oracle_alpha_at_decimal_level, oracle_alpha_at_level


class TestNonconformity:
    def test_unit_divisor(self):
        assert nonconformity(5.0, 5.5, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_divisor_exactly_two(self):
        assert nonconformity(7.0, 6.0, math.log(2)) == pytest.approx(0.5, abs=1e-12)

    def test_zero_residual(self):
        assert nonconformity(3.0, 3.0, 5.0) == 0.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            nonconformity(1.0, 0.0, -0.1)

    def test_huge_sigma_no_overflow(self):
        assert 0.0 <= nonconformity(0.0, 10.0, 5000.0) < 1e-300


class TestBuildCalibration:
    def test_singleton(self):
        preds = from_passes(np.array([[0.6]]))
        cal = build_calibration([1.0], preds)
        assert cal.alpha.tolist() == [pytest.approx(0.4, abs=1e-12)]

    def test_sorted_output(self):
        # sigma {0, ln 2, 0, 0}: alphas [1.0, 0.25, 0.5, 0.25], so the order is
        # rows 1, 3 (the tie, in row order), 2, 0
        preds = summary([2.0, 0.0, 1.0, 4.0], [0.0, math.log(2), 0.0, 0.0])
        cal = build_calibration([3.0, 0.5, 1.5, 4.25], preds, ids=["a", "b", "c", "d"])
        assert cal.alpha.tolist() == [0.25, 0.25, 0.5, 1.0]
        assert cal.ids == ("b", "d", "c", "a")
        assert cal.y.tolist() == [0.5, 4.25, 1.5, 3.0]
        assert cal.y_hat.tolist() == [0.0, 4.0, 1.0, 2.0]
        assert cal.sigma.tolist() == [math.log(2), 0.0, 0.0, 0.0]

    def test_length_mismatch(self):
        preds = from_passes(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            build_calibration([1.0], preds)

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError, match="at least one score"):
            build_calibration([], from_passes(np.zeros((0, 3))))


class TestAlphaAtLevel:
    def test_derived_example(self):
        assert alpha_at_level(np.arange(0.1, 1.0, 0.1), 0.80) == pytest.approx(0.8, abs=1e-12)

    def test_insufficient_data_gives_inf(self):
        assert alpha_at_level(np.array([0.1, 0.2, 0.3]), 0.90) == math.inf

    def test_constant_list(self):
        assert alpha_at_level(np.full(10, 0.7), 0.5) == 0.7

    def test_oracle_agreement_random_lists(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 51))
            alphas = np.sort(rng.random(n))
            cl = float(rng.uniform(0.01, 0.99))
            assert alpha_at_level(alphas, cl) == oracle_alpha_at_level(alphas, cl, n)

    def test_oracle_agreement_tiny_levels(self):
        # cl*(n+1) under the 1e-9 slack once gave k = 0, so alphas[-1]: the
        # largest score where the oracle takes the smallest
        assert alpha_at_level(np.array([0.1, 0.5, 2.0]), 1e-10) == 0.1
        rng = np.random.default_rng(19)
        for cl in (5e-324, 1e-300, 1e-12, 1e-10, 2.5e-10, 1e-9, 1e-6):
            for n in (1, 3, 50):
                alphas = np.sort(rng.random(n))
                assert rank_at_level(n, cl) == 1
                assert alpha_at_level(alphas, cl) == oracle_alpha_at_level(alphas, cl, n)

    @pytest.mark.parametrize("cl_text, n, k", [
        ("0.3", 9, 3),  # on a rank boundary: 0.3 * 10 = 3
        ("0.30000000001", 9, 4),  # just above it; the old 1e-9 slack gave 3
        ("0.2", 4, 1),  # the float 0.2 lies just above 1/5, the level does not
        ("0.200000000001", 4, 2),
        ("0.8", 99, 80),
        ("0.80000000000001", 99, 81),
        ("0.9", 9, 9),
        ("0.9000000000001", 9, 10),  # k > n: no score sets the level
    ])
    def test_rank_on_and_just_above_a_boundary(self, cl_text, n, k):
        alphas = np.arange(1.0, n + 1)  # the k-th score is k
        assert rank_at_level(n, float(cl_text)) == k
        assert alpha_at_level(alphas, float(cl_text)) == (k if k <= n else math.inf)
        assert alpha_at_level(alphas, float(cl_text)) == oracle_alpha_at_decimal_level(
            alphas, cl_text, n)

    def test_decimal_oracle_agreement_on_grids(self):
        # every level of a 0.01-step grid, and each level plus 1e-11, at every
        # n up to 200 where the level sets a rank boundary: cl * (n+1) whole;
        # numpy levels give the same rank
        alphas = np.arange(1.0, 201)
        for j in range(1, 100):
            for cl_text in (f"0.{j:02d}", f"0.{j:02d}000000001"):
                cl = float(cl_text)
                for n in (n for n in range(1, 201) if (n + 1) * j % 100 == 0):
                    expected = oracle_alpha_at_decimal_level(alphas[:n], cl_text, n)
                    assert alpha_at_level(alphas[:n], cl) == expected
                    assert rank_at_level(n, np.float64(cl)) == rank_at_level(n, cl)

    def test_monotone_in_cl(self):
        rng = np.random.default_rng(18)
        alphas = np.sort(rng.random(30))
        values = [alpha_at_level(alphas, cl) for cl in np.linspace(0.05, 0.99, 40)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def summary(y_hat, sigma):
    """Ensemble summary with the given per-instance mean and spread."""
    y_hat = np.asarray(y_hat, dtype=np.float64)
    return EnsemblePrediction(means=y_hat, stds=np.asarray(sigma, dtype=np.float64),
                              passes=y_hat[:, None], n_members=1)


def bounds_at(preds, alphas, cl):
    """The (n, 2) bounds at level cl from the ascending scores: the interval
    factors, then intervals_for."""
    return intervals_for(preds.means, *interval_factors(preds, alphas, [cl]))[cl]


def result_bounds(res):
    """cl -> (n_test, 2) bounds of a pipeline result, from its factors."""
    return intervals_for(res.test_prediction.means, res.scale, res.alpha)


def one_interval(y_hat, sigma, alpha_cl, cl=0.8):
    """[lower, upper] for one instance, from a calibration whose score at
    level cl is alpha_cl (a single score when alpha_cl is inf: k = 2 > n)."""
    alphas = np.full(9, alpha_cl) if math.isfinite(alpha_cl) else np.zeros(1)
    assert alpha_at_level(alphas, cl) == alpha_cl
    return bounds_at(summary([y_hat], [sigma]), alphas, cl)[0]


class TestArrayFormulas:
    def test_scores_and_bounds_equal_the_scalar_formulas_bit_for_bit(self):
        # np.exp differs from math.exp in the last bit on some inputs, which
        # would change emitted bytes; the per-instance formulas are the reference
        rng = np.random.default_rng(41)
        y, y_hat = rng.normal(size=(2, 500))
        sigma = rng.uniform(0, 3, size=500)
        assert nonconformity(y, y_hat, sigma).tolist() == [
            abs(a - b) * math.exp(-min(s, 745.0)) for a, b, s in zip(y, y_hat, sigma)
        ]
        alphas = np.sort(rng.random(50))
        a_cl = alpha_at_level(alphas, 0.8)
        scale, alpha = interval_factors(summary(y_hat, sigma), alphas, [0.8])
        assert scale.tolist() == [math.exp(min(s, 700.0)) for s in sigma]
        assert alpha == {0.8: a_cl}
        half = [math.exp(min(s, 700.0)) * a_cl for s in sigma]
        bounds = intervals_for(y_hat, scale, alpha)[0.8]
        assert bounds[:, 0].tolist() == [m - h for m, h in zip(y_hat, half)]
        assert bounds[:, 1].tolist() == [m + h for m, h in zip(y_hat, half)]

    def test_factors_clamp_sigma_at_700_and_reject_non_finite_y_hat(self):
        alphas = np.array([0.5])
        scale, alpha = interval_factors(summary([1.0, 2.0], [700.0, 5000.0]), alphas, [0.3, 0.8])
        assert scale.tolist() == [math.exp(700.0)] * 2 and alpha == {0.3: 0.5, 0.8: math.inf}
        with pytest.raises(ValueError, match="y_hat must be finite"):
            interval_factors(summary([1.0, math.nan], [0.0, 0.0]), alphas, [0.8])


class TestPredictInterval:
    def test_unit_divisor(self):
        lower, upper = one_interval(6.0, 0.0, 0.5, 0.8)
        assert (lower, upper) == (pytest.approx(5.5, abs=1e-12), pytest.approx(6.5, abs=1e-12))

    def test_half_width_one(self):
        lower, upper = one_interval(7.0, math.log(2), 0.5, 0.8)
        assert lower == pytest.approx(6.0, abs=1e-12)
        assert upper == pytest.approx(8.0, abs=1e-12)

    def test_unbounded(self):
        lower, upper = one_interval(6.0, 0.0, math.inf, 0.8)
        assert lower == -math.inf and upper == math.inf
        assert level_metrics([[(lower, upper)]], [1e300])[0] == [1.0]

    def test_symmetry(self):
        lower, upper = one_interval(2.5, 0.3, 0.7, 0.8)
        assert upper - 2.5 == pytest.approx(2.5 - lower, abs=1e-12)


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.floats(-10, 10), st.floats(-10, 10), st.floats(0, 5)),
            min_size=1,
            max_size=40,
        )
    )
    def test_exponential_scaling_bound(self, data):
        alphas = [nonconformity(y, yh, s) for y, yh, s in data]
        residuals = [abs(y - yh) for y, yh, _ in data]
        assert max(alphas) <= max(residuals) + 1e-12
        # equality whenever the max-residual instance has sigma == 0
        i = int(np.argmax(residuals))
        if data[i][2] == 0:
            assert max(alphas) == pytest.approx(residuals[i], abs=1e-12)

    def test_self_calibration_count(self):
        rng = np.random.default_rng(23)
        for n in (9, 19, 99):
            y = rng.normal(size=n)
            y_hat = rng.normal(size=n)
            sigma = rng.uniform(0, 1, size=n)
            alphas = np.array([nonconformity(a, b, s) for a, b, s in zip(y, y_hat, sigma)])
            assert len(np.unique(alphas)) == n
            for cl in (0.5, 0.8, 0.9):
                bounds = bounds_at(summary(y_hat, sigma), np.sort(alphas), cl)
                covered = round(level_metrics([bounds], y)[0][0] * n)
                assert covered == math.ceil(cl * (n + 1))


@pytest.fixture(scope="module")
def toy_setup():
    ds = make_synthetic(300, 3, "heteroscedastic", 0.4, seed=31)
    sp = random_split(ds.n_rows, seed=31)
    return ds, sp


class TestPipelines:
    def test_dropout_icp_zero_dropout_collapses(self, toy_setup):
        ds, sp = toy_setup
        cfg = NetConfig(hidden_sizes=(8,), dropout_p=0.0, max_epochs=30, patience=30)
        model, _ = train(ds.subset(sp.train), ds.subset(sp.validation), cfg, seed=1)
        res = dropout_icp(model, ds.subset(sp.validation), ds.subset(sp.test),
                          n_passes=10, cl_list=[0.8], seed=2)
        # all sigma are 0, so every interval shares the same half-width
        ivs = result_bounds(res)[0.8]
        widths = {round(upper - lower, 12) for lower, upper in ivs}
        assert len(widths) == 1
        alphas = np.sort(res.calibration.alpha)
        k = math.ceil(0.8 * (len(alphas) + 1))
        half = ivs[0][1] - res.test_prediction.means[0]
        assert half == pytest.approx(alphas[k - 1], abs=1e-12)

    def test_dropout_icp_shapes_and_determinism(self, toy_setup):
        ds, sp = toy_setup
        cfg = NetConfig(hidden_sizes=(8,), dropout_p=0.25, max_epochs=30, patience=30)
        model, _ = train(ds.subset(sp.train), ds.subset(sp.validation), cfg, seed=3)
        args = (model, ds.subset(sp.validation), ds.subset(sp.test))
        r1 = dropout_icp(*args, n_passes=20, cl_list=[0.5, 0.8], seed=4)
        r2 = dropout_icp(*args, n_passes=20, cl_list=[0.5, 0.8], seed=4)
        assert set(r1.alpha) == {0.5, 0.8}
        assert len(r1.scale) == ds.subset(sp.test).n_rows
        assert np.array_equal(r1.test_prediction.passes, r2.test_prediction.passes)
        assert np.array_equal(r1.scale, r2.scale) and r1.alpha == r2.alpha

    def test_interval_widths_monotone_in_cl(self, toy_setup):
        ds, sp = toy_setup
        cfg = NetConfig(hidden_sizes=(8,), dropout_p=0.25, max_epochs=30, patience=30)
        model, _ = train(ds.subset(sp.train), ds.subset(sp.validation), cfg, seed=5)
        res = dropout_icp(model, ds.subset(sp.validation), ds.subset(sp.test),
                          n_passes=20, cl_list=[0.6, 0.7, 0.8, 0.9], seed=6)
        bounds = result_bounds(res)
        for lo, hi in zip([0.6, 0.7, 0.8], [0.7, 0.8, 0.9]):
            narrow, wide = np.diff(bounds[lo]), np.diff(bounds[hi])
            assert np.all(wide >= narrow)

    def test_rf_ccp_constant_labels_degenerate(self):
        from dropconf.data import Dataset

        rng = np.random.default_rng(7)
        X = rng.random((24, 2))
        ds = Dataset(ids=tuple(f"r{i}" for i in range(24)), labels=np.full(24, 4.5), features=X)
        res = rf_ccp(ds.subset(range(20)), ds.subset(range(20, 24)),
                     ForestConfig(n_trees=3), k=2, cl_list=[0.5], seed=8)
        assert np.all(res.test_prediction.means == 4.5)
        assert np.all(result_bounds(res)[0.5] == 4.5)  # half width 0

    def test_rf_ccp_deterministic(self, toy_setup):
        ds, sp = toy_setup
        train_view = ds.subset(sp.train)
        test_view = ds.subset(sp.test)
        r1 = rf_ccp(train_view, test_view, ForestConfig(n_trees=5), k=3, cl_list=[0.8], seed=9)
        r2 = rf_ccp(train_view, test_view, ForestConfig(n_trees=5), k=3, cl_list=[0.8], seed=9)
        assert np.array_equal(np.sort(r1.calibration.alpha), np.sort(r2.calibration.alpha))
        assert np.array_equal(r1.test_prediction.means, r2.test_prediction.means)
        assert np.array_equal(r1.scale, r2.scale) and r1.alpha == r2.alpha
