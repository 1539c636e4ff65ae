import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dropconf.conformal import (
    CalibrationModel,
    alpha_at_level,
    build_calibration,
    dropout_icp,
    intervals_for,
    nonconformity,
    rf_ccp,
)
from dropconf.data import make_synthetic, random_split
from dropconf.ensemble import EnsemblePrediction, from_passes
from dropconf.evaluate import coverage
from dropconf.forest import ForestConfig
from dropconf.net import NetConfig, train

from oracles import oracle_alpha_at_level


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
        cal, _ = build_calibration([1.0], preds)
        assert cal.alphas.tolist() == [pytest.approx(0.4, abs=1e-12)]

    def test_sorted_output(self):
        # residuals {1.0, 0.2} with sigma {0, ln 2} -> alphas [0.1, 1.0]
        passes = np.array([[2.0], [0.0]])  # stds are 0
        preds = from_passes(passes)
        # override sigma by constructing pass rows with the right spread is
        # fiddly; use nonconformity directly for the sigma=ln2 instance
        a1 = nonconformity(3.0, 2.0, 0.0)
        a2 = nonconformity(0.2, 0.0, math.log(2))
        cal = CalibrationModel(alphas=np.sort([a1, a2]))
        assert cal.alphas[0] == pytest.approx(0.1, abs=1e-12)
        assert cal.alphas[1] == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch(self):
        preds = from_passes(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            build_calibration([1.0], preds)


class TestAlphaAtLevel:
    def test_derived_example(self):
        cal = CalibrationModel(alphas=np.arange(0.1, 1.0, 0.1))
        assert alpha_at_level(cal, 0.80) == pytest.approx(0.8, abs=1e-12)

    def test_insufficient_data_gives_inf(self):
        cal = CalibrationModel(alphas=np.array([0.1, 0.2, 0.3]))
        assert alpha_at_level(cal, 0.90) == math.inf

    def test_constant_list(self):
        cal = CalibrationModel(alphas=np.full(10, 0.7))
        assert alpha_at_level(cal, 0.5) == 0.7

    def test_oracle_agreement_random_lists(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 51))
            alphas = np.sort(rng.random(n))
            cal = CalibrationModel(alphas=alphas)
            cl = float(rng.uniform(0.01, 0.99))
            assert alpha_at_level(cal, cl) == oracle_alpha_at_level(alphas, cl, n)

    def test_monotone_in_cl(self):
        rng = np.random.default_rng(18)
        cal = CalibrationModel(alphas=np.sort(rng.random(30)))
        values = [alpha_at_level(cal, cl) for cl in np.linspace(0.05, 0.99, 40)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def summary(y_hat, sigma):
    """Ensemble summary with the given per-instance mean and spread."""
    y_hat = np.asarray(y_hat, dtype=np.float64)
    return EnsemblePrediction(means=y_hat, stds=np.asarray(sigma, dtype=np.float64),
                              passes=y_hat[:, None], n_members=1)


def one_interval(y_hat, sigma, alpha_cl, cl=0.8):
    """[lower, upper] for one instance, from a calibration whose score at
    level cl is alpha_cl (a single score when alpha_cl is inf: k = 2 > n)."""
    alphas = np.full(9, alpha_cl) if math.isfinite(alpha_cl) else np.zeros(1)
    cal = CalibrationModel(alphas=alphas)
    assert alpha_at_level(cal, cl) == alpha_cl
    return intervals_for(summary([y_hat], [sigma]), cal, [cl])[cl][0]


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
        cal = CalibrationModel(alphas=np.sort(rng.random(50)))
        a_cl = alpha_at_level(cal, 0.8)
        half = [math.exp(min(s, 700.0)) * a_cl for s in sigma]
        bounds = intervals_for(summary(y_hat, sigma), cal, [0.8])[0.8]
        assert bounds[:, 0].tolist() == [m - h for m, h in zip(y_hat, half)]
        assert bounds[:, 1].tolist() == [m + h for m, h in zip(y_hat, half)]


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
        assert coverage([(lower, upper)], [1e300]) == 1.0

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
            cal = CalibrationModel(alphas=np.sort(alphas))
            for cl in (0.5, 0.8, 0.9):
                bounds = intervals_for(summary(y_hat, sigma), cal, [cl])[cl]
                covered = round(coverage(bounds, y) * n)
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
        ivs = res.intervals[0.8]
        widths = {round(upper - lower, 12) for lower, upper in ivs}
        assert len(widths) == 1
        alphas = np.sort(res.calibration_detail.alpha)
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
        assert set(r1.intervals) == {0.5, 0.8}
        assert len(r1.intervals[0.8]) == ds.subset(sp.test).n_rows
        assert np.array_equal(r1.test_prediction.passes, r2.test_prediction.passes)
        assert np.array_equal(r1.intervals[0.8], r2.intervals[0.8])

    def test_interval_widths_monotone_in_cl(self, toy_setup):
        ds, sp = toy_setup
        cfg = NetConfig(hidden_sizes=(8,), dropout_p=0.25, max_epochs=30, patience=30)
        model, _ = train(ds.subset(sp.train), ds.subset(sp.validation), cfg, seed=5)
        res = dropout_icp(model, ds.subset(sp.validation), ds.subset(sp.test),
                          n_passes=20, cl_list=[0.6, 0.7, 0.8, 0.9], seed=6)
        for lo, hi in zip([0.6, 0.7, 0.8], [0.7, 0.8, 0.9]):
            narrow, wide = np.diff(res.intervals[lo]), np.diff(res.intervals[hi])
            assert np.all(wide >= narrow)

    def test_rf_ccp_constant_labels_degenerate(self):
        from dropconf.data import Dataset

        rng = np.random.default_rng(7)
        X = rng.random((24, 2))
        ds = Dataset(ids=tuple(f"r{i}" for i in range(24)), labels=np.full(24, 4.5), features=X)
        res = rf_ccp(ds.subset(range(20)), ds.subset(range(20, 24)),
                     ForestConfig(n_trees=3), k=2, cl_list=[0.5], seed=8)
        assert np.all(res.test_prediction.means == 4.5)
        assert np.all(res.intervals[0.5] == 4.5)  # half width 0

    def test_rf_ccp_deterministic(self, toy_setup):
        ds, sp = toy_setup
        train_view = ds.subset(sp.train)
        test_view = ds.subset(sp.test)
        r1 = rf_ccp(train_view, test_view, ForestConfig(n_trees=5), k=3, cl_list=[0.8], seed=9)
        r2 = rf_ccp(train_view, test_view, ForestConfig(n_trees=5), k=3, cl_list=[0.8], seed=9)
        assert np.array_equal(np.sort(r1.calibration_detail.alpha), np.sort(r2.calibration_detail.alpha))
        assert np.array_equal(r1.intervals[0.8], r2.intervals[0.8])
