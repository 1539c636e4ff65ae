"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavyweight fixtures (a trained dropout network and a full
cross-conformal forest on n=3000 heteroscedastic data) are shared at module
scope; expect a few minutes of runtime on one core.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from dropconf.conformal import (
    CalibrationModel,
    alpha_at_level,
    dropout_icp,
    intervals_for,
    nonconformity,
    rf_ccp,
)
from dropconf.data import make_synthetic, random_split
from dropconf.ensemble import EnsemblePrediction, mc_dropout_predict
from dropconf.evaluate import CATEGORIES, calibration_curve, coverage, rmse, screen_counts
from dropconf.forest import ForestConfig, fit_cart, fit_forest, forest_predict
from dropconf.net import NetConfig, compute_gradients, draw_masks, init_mlp, lr_at_epoch, train
from dropconf.seeds import rng_for

from oracles import (
    fd_gradients,
    min_abs_preactivation,
    oracle_alpha_at_level,
    oracle_cart,
    oracle_cart_predict,
)

GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))


def report(number, label):
    print(f"ACCEPTANCE {number:02d} PASS - {label}")


def summary(y_hat, sigma):
    """Ensemble summary with the given per-instance mean and spread."""
    y_hat = np.asarray(y_hat, dtype=np.float64)
    return EnsemblePrediction(means=y_hat, stds=np.asarray(sigma, dtype=np.float64),
                              passes=y_hat[:, None], n_members=1)


def coverage_floor_ok(curve, n_test):
    for cl, cov in zip(curve.cls, curve.coverages):
        floor = cl - 3 * math.sqrt(cl * (1 - cl) / n_test)
        if cov < floor:
            return False, (cl, cov, floor)
    return True, None


@pytest.fixture(scope="module")
def hetero_data():
    ds = make_synthetic(3000, 8, "heteroscedastic", 0.3, seed=11)
    sp = random_split(ds.n_rows, (0.70, 0.15, 0.15), seed=11)
    return ds, sp


@pytest.fixture(scope="module")
def dnn_icp(hetero_data):
    ds, sp = hetero_data
    cfg = NetConfig(hidden_sizes=(32, 32, 8), dropout_p=0.25, max_epochs=400, patience=100)
    model, log = train(ds.subset(sp.train), ds.subset(sp.validation), cfg, seed=5)
    result = dropout_icp(model, ds.subset(sp.validation), ds.subset(sp.test),
                         n_passes=100, cl_list=GRID, seed=7)
    return result, ds.subset(sp.test)


@pytest.fixture(scope="module")
def rf_result(hetero_data):
    ds, sp = hetero_data
    trainval = ds.subset(np.concatenate([sp.train, sp.validation]))
    result = rf_ccp(trainval, ds.subset(sp.test), ForestConfig(n_trees=100),
                    k=10, cl_list=GRID, seed=9)
    return result, ds.subset(sp.test)


def test_criterion_01_dropout_validity(dnn_icp):
    result, test_set = dnn_icp
    curve = calibration_curve(result.intervals, test_set.labels, GRID)
    ok, detail = coverage_floor_ok(curve, test_set.n_rows)
    assert ok, f"coverage below floor at {detail}"
    assert curve.r_squared is not None and curve.r_squared > 0.99
    report(1, f"dropout ICP validity (R^2 = {curve.r_squared:.5f})")


@pytest.mark.slow  # uses the n=3000, 100-tree RF fixture
def test_criterion_02_rf_validity(rf_result):
    result, test_set = rf_result
    curve = calibration_curve(result.intervals, test_set.labels, GRID)
    ok, detail = coverage_floor_ok(curve, test_set.n_rows)
    assert ok, f"coverage below floor at {detail}"
    assert curve.r_squared is not None and curve.r_squared > 0.99
    report(2, f"RF cross-conformal validity (R^2 = {curve.r_squared:.5f})")


def test_criterion_03_gradient_correctness():
    rng = np.random.default_rng(101)
    checked = 0
    attempt = 0
    worst = 0.0
    while checked < 20:
        attempt += 1
        assert attempt < 400, "could not find enough kink-free configurations"
        d = int(rng.integers(2, 9))
        hidden = (int(rng.integers(2, 17)), int(rng.integers(2, 9)))
        p = float(rng.choice([0.0, 0.25, 0.5]))
        model = init_mlp(d, NetConfig(hidden_sizes=hidden, dropout_p=p), seed=attempt)
        X = rng.standard_normal((3, d))
        y = rng.standard_normal(3)
        masks = draw_masks(model, 3, rng_for(attempt, "m"))
        if min_abs_preactivation(model, X, masks) < 1e-3:
            continue  # finite differences straddle a ReLU kink
        w_g, b_g, _ = compute_gradients(model, X, y, masks)
        w_o, b_o = fd_gradients(model, X, y, masks)
        for a, b in zip(w_g + b_g, w_o + b_o):
            denom = np.maximum(np.abs(b), 1e-3)
            rel = float(np.max(np.abs(a - b) / denom))
            worst = max(worst, rel)
            assert rel < 1e-4
        checked += 1
    report(3, f"gradients vs finite differences on {checked} nets (max rel err {worst:.2e})")


def test_criterion_04_cart_oracle_equivalence():
    rng = np.random.default_rng(202)
    for table in range(200):
        n = int(rng.integers(2, 17))
        d = int(rng.integers(1, 4))
        X = rng.random((n, d))
        y = rng.random(n)
        tree = fit_cart(X, y, ForestConfig(), rng_for(table))
        oracle = oracle_cart(X, y)
        queries = np.vstack([X, rng.random((8, d))])
        for q in queries:
            assert tree.predict(q[None, :])[0] == oracle_cart_predict(oracle, q)
    report(4, "CART equals exhaustive-split oracle on 200 random tables")


def test_criterion_05_quantile_oracle():
    rng = np.random.default_rng(303)
    inf_cases = 0
    for _ in range(500):
        n = int(rng.integers(1, 51))
        alphas = np.sort(rng.random(n))
        cal = CalibrationModel(alphas=alphas, source="dropout")
        cl = float(rng.uniform(0.01, 0.99))
        got = alpha_at_level(cal, cl)
        expected = oracle_alpha_at_level(alphas, cl, n)
        assert got == expected
        if math.isinf(got):
            inf_cases += 1
    assert inf_cases > 0, "random draw must include k > n cases"
    report(5, f"alpha_at_level equals counting oracle on 500 lists ({inf_cases} unbounded)")


def test_criterion_06_self_calibration_count():
    rng = np.random.default_rng(404)
    for n in (9, 19, 99):
        y = rng.normal(size=n)
        y_hat = rng.normal(size=n)
        sigma = rng.uniform(0, 1, size=n)
        alphas = np.array([nonconformity(a, b, s) for a, b, s in zip(y, y_hat, sigma)])
        assert len(np.unique(alphas)) == n
        cal = CalibrationModel(alphas=np.sort(alphas), source="dropout")
        for cl in (0.5, 0.8, 0.9):
            a_cl = alpha_at_level(cal, cl)
            assert math.isfinite(a_cl)
            covered = round(coverage(intervals_for(summary(y_hat, sigma), cal, [cl])[cl], y) * n)
            assert covered == math.ceil(cl * (n + 1) - 1e-9)
    report(6, "self-calibration covers exactly k = ceil(cl*(n+1)) instances")


def test_criterion_07_exponential_scaling_bound():
    rng = np.random.default_rng(505)
    for trial in range(200):
        n = int(rng.integers(1, 40))
        y = rng.normal(size=n)
        y_hat = rng.normal(size=n)
        sigma = rng.uniform(0, 3, size=n)
        if trial % 2 == 0:
            sigma[int(np.argmax(np.abs(y - y_hat)))] = 0.0  # force the equality branch
        alphas = [nonconformity(a, b, s) for a, b, s in zip(y, y_hat, sigma)]
        residuals = np.abs(y - y_hat)
        assert max(alphas) <= residuals.max() + 1e-12
        if sigma[int(np.argmax(residuals))] == 0.0:
            assert max(alphas) == pytest.approx(residuals.max(), abs=1e-12)
    report(7, "max(alpha) <= max residual, equality at sigma = 0")


def test_criterion_08_equation_unit_examples():
    assert nonconformity(5.0, 5.5, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert nonconformity(7.0, 6.0, math.log(2)) == pytest.approx(0.5, abs=1e-12)
    assert nonconformity(3.0, 3.0, 5.0) == pytest.approx(0.0, abs=1e-12)
    half = CalibrationModel(alphas=np.full(9, 0.5), source="dropout")  # alpha_0.8 = 0.5
    (lower, upper), (lower2, upper2) = intervals_for(
        summary([6.0, 7.0], [0.0, math.log(2)]), half, [0.8])[0.8]
    assert lower == pytest.approx(5.5, abs=1e-12) and upper == pytest.approx(6.5, abs=1e-12)
    assert lower2 == pytest.approx(6.0, abs=1e-12) and upper2 == pytest.approx(8.0, abs=1e-12)
    one = CalibrationModel(alphas=np.array([0.5]), source="dropout")  # k = 2 > n: alpha = inf
    ((lower, upper),) = intervals_for(summary([6.0], [0.0]), one, [0.8])[0.8]
    assert lower == -math.inf and upper == math.inf
    report(8, "score and interval unit examples exact to 1e-12")


@pytest.mark.slow  # uses the n=3000, 100-tree RF fixture
def test_criterion_09_retrieval_partition(dnn_icp, rf_result):
    for result, test_set in (dnn_icp, rf_result):
        counts = screen_counts(result.intervals[0.8], test_set.labels, cutoffs=(5, 6, 7, 8, 9))
        for rc in counts:
            assert rc.n_total == test_set.n_rows

    def screen_one(lo, hi, y, cutoff):
        (rc,) = screen_counts([(lo, hi)], [y], cutoffs=(cutoff,))
        return next(cat for cat in CATEGORIES if getattr(rc, cat))

    assert screen_one(7.5, 8.5, 8.0, 7) == "true_positive"
    assert screen_one(6.0, 8.0, 7.5, 7) == "uncertain"
    assert screen_one(4.0, 6.5, 7.2, 7) == "false_negative"
    report(9, "retrieval categories partition the test set at every cutoff")


def test_criterion_10_cli_determinism(tmp_path):
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    cfg = os.path.join(root, "fixtures", "synthetic.cfg")
    manifests = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        proc = subprocess.run(
            [sys.executable, "-m", "dropconf.cli", "run", "--config", cfg,
             "--seed", "7", "--out", out],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        with open(os.path.join(out, "manifest.json")) as fh:
            manifests.append(fh.read())
    assert manifests[0] == manifests[1]
    report(10, "two CLI executions produce byte-identical manifests")


def test_criterion_11_training_sanity():
    ds = make_synthetic(1500, 4, "homoscedastic", 0.3, seed=21)
    sp = random_split(ds.n_rows, (0.70, 0.15, 0.15), seed=21)
    tr, va, te = ds.subset(sp.train), ds.subset(sp.validation), ds.subset(sp.test)

    cfg = NetConfig(hidden_sizes=(32, 32, 8), dropout_p=0.1, max_epochs=800, patience=200)
    model, log = train(tr, va, cfg, seed=5)
    assert log.converged
    dnn_pred = mc_dropout_predict(model, te.features, 100, seed=6)
    dnn_rmse = rmse(te.labels, dnn_pred.means)
    assert dnn_rmse <= 0.45

    trainval = ds.subset(np.concatenate([sp.train, sp.validation]))
    forest = fit_forest(trainval, ForestConfig(n_trees=100), seed=7)
    rf_pred = forest_predict(forest, te.features)
    rf_rmse = rmse(te.labels, rf_pred.means)
    assert rf_rmse <= 0.45

    crippled_cfg = NetConfig(hidden_sizes=(32, 32, 8), dropout_p=0.1, lr0=0.0,
                             max_epochs=10, patience=2, rmse_gate=1.2)
    _, crippled_log = train(tr, va, crippled_cfg, seed=8)
    assert not crippled_log.converged

    report(11, f"DNN RMSE {dnn_rmse:.3f}, RF RMSE {rf_rmse:.3f} (noise 0.3); lr=0 flagged")


def test_criterion_12_schedule_conformance():
    cfg = NetConfig()
    assert lr_at_epoch(cfg, 0) == 0.005
    assert lr_at_epoch(cfg, 1000) == 0.005
    assert lr_at_epoch(cfg, 450) == pytest.approx(0.0018, abs=1e-12)

    ds = make_synthetic(60, 2, "homoscedastic", 0.2, seed=31)
    run_cfg = NetConfig(hidden_sizes=(4,), dropout_p=0.1, max_epochs=1200, patience=1200)
    _, log = train(ds.subset(range(45)), ds.subset(range(45, 60)), run_cfg, seed=9)
    assert log.n_epochs == 1200
    for e, lr in enumerate(log.learning_rates):
        assert lr == lr_at_epoch(run_cfg, e)
    report(12, "cyclical schedule exact at epochs 0/450/1000 and over a 1200-epoch log")
