import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dropconf.conformal import intervals_for
from dropconf.ensemble import from_passes
from dropconf.evaluate import (
    CATEGORIES,
    aggregate_runs,
    evaluate_model,
    level_metrics,
    rmse,
    screen_counts,
    sigma_error_pairs,
)


def interval(lower, upper):
    return (lower, upper)


def classify_one(interval, y_true, cutoff):
    """The retrieval category screen_counts gives one instance."""
    (rc,) = screen_counts([interval], [y_true], cutoffs=(cutoff,))
    return next(cat for cat in CATEGORIES if rc[cat])


class TestRmse:
    def test_perfect(self):
        assert rmse([1, 2, 3], [1, 2, 3]) == 0.0

    def test_uniform_offset(self):
        assert rmse([1, 2, 3], [1.5, 2.5, 3.5]) == pytest.approx(0.5, abs=1e-12)

    def test_hand_arithmetic(self):
        assert rmse([0, 0], [3, 4]) == pytest.approx(math.sqrt(12.5), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse([1], [1, 2])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=1, max_size=30))
    def test_permutation_invariance(self, pairs):
        y = [p[0] for p in pairs]
        yh = [p[1] for p in pairs]
        assert rmse(y, yh) == pytest.approx(rmse(y[::-1], yh[::-1]), rel=1e-9, abs=1e-12)


class TestCoverage:
    def test_unbounded_always_cover(self):
        ivs = [interval(-math.inf, math.inf)] * 3
        assert level_metrics([ivs], [0, 100, -100])[0] == [1.0]

    def test_boundary_is_covered(self):
        assert level_metrics([[interval(0, 1)]], [1.0])[0] == [1.0]
        assert level_metrics([[interval(0, 1)]], [0.0])[0] == [1.0]

    def test_half_covered(self):
        assert level_metrics([[interval(0, 1), interval(0, 1)]], [0.5, 2.0])[0] == [0.5]


def curve(y_hat, alpha, y):
    """The calibration curve evaluate_model reports for unit scales."""
    n = len(y_hat)
    return evaluate_model("m", np.asarray(y_hat, dtype=float), np.ones(n), alpha, np.zeros(n),
                          y, max(alpha), ())["curve"]


class TestCalibrationCurve:
    def test_perfect_calibration(self):
        # residual i + 1 for instance i: the level with alpha 10 * cl covers cl of them
        grid = [0.2, 0.5, 0.8]
        y = np.arange(10.0)
        got = curve(y - np.arange(1.0, 11.0), {cl: 10 * cl for cl in grid}, y)
        assert got["cl"] == grid and got["coverage"] == grid
        assert got["r_squared"] == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_constant_coverage(self):
        got = curve([0.0], {0.2: math.inf, 0.8: math.inf}, [0.0])
        assert got["coverage"] == [1.0, 1.0] and got["r_squared"] is None

    def test_single_point_grid(self):
        got = curve([0.5], {0.8: 0.5}, [0.5])
        assert got == {"cl": [0.8], "coverage": [1.0], "r_squared": None}


class TestWidthStats:
    def test_constant_widths(self):
        _, (ws,) = level_metrics([[interval(0, 1)] * 4], np.zeros(4))
        assert ws["mean"] == 1.0 and ws["median"] == 1.0 and ws["q3"] - ws["q1"] == 0.0

    def test_even_count_median(self):
        ivs = [interval(0, w) for w in (1, 2, 3, 4)]
        assert level_metrics([ivs], np.zeros(4))[1][0]["median"] == 2.5

    def test_unbounded_bookkeeping(self):
        ivs = [interval(0, 1), interval(0, 2), interval(0, 3), interval(-math.inf, math.inf)]
        _, (ws,) = level_metrics([ivs], np.zeros(4))
        assert ws["fraction_unbounded"] == 0.25
        assert ws["n_finite"] == 3
        assert ws["mean"] == 2.0

    def test_no_bounded_interval_gives_no_statistics(self):
        # these were NaN, which json.dump writes as the non-standard NaN
        _, (ws,) = level_metrics([[interval(-math.inf, math.inf)] * 2], np.zeros(2))
        assert ws == {"mean": None, "median": None, "q1": None, "q3": None, "min": None,
                      "max": None, "fraction_unbounded": 1.0, "n_finite": 0}


def oracle_coverage(intervals, y_true) -> float:
    """One level's coverage as it was computed one level at a time, the byte
    oracle."""
    bounds = np.asarray(intervals, dtype=np.float64).reshape(len(intervals), 2)
    lower, upper = bounds[:, 0], bounds[:, 1]
    y = np.asarray(y_true, dtype=np.float64)
    magnitude = np.maximum(np.abs(lower), np.abs(upper))
    slack = 1e-12 * np.maximum(magnitude, np.maximum(np.abs(y), 1.0))
    hits = int(np.count_nonzero((lower - slack <= y) & (y <= upper + slack)))
    return hits / len(y)


def oracle_width_stats(intervals) -> dict:
    """One level's width stats as they were computed one level at a time, the
    byte oracle."""
    bounds = np.asarray(intervals, dtype=np.float64).reshape(len(intervals), 2)
    widths = bounds[:, 1] - bounds[:, 0]
    finite = widths[np.isfinite(widths)]
    frac_unbounded = 1.0 - len(finite) / len(widths)
    stats = dict.fromkeys(("mean", "median", "q1", "q3", "min", "max"), None)
    if len(finite):
        stats = {
            "mean": float(finite.mean()),
            "median": float(np.median(finite)),
            "q1": float(np.percentile(finite, 25)),
            "q3": float(np.percentile(finite, 75)),
            "min": float(finite.min()),
            "max": float(finite.max()),
        }
    return {**stats, "fraction_unbounded": frac_unbounded, "n_finite": len(finite)}


class TestLevelMetrics:
    @pytest.mark.parametrize("n", [1, 2, 3, 750])
    def test_every_level_matches_the_per_level_oracle_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        y_hat = rng.standard_normal(n) * 3.0
        # scales of eleven values tie widths; a scale of 1e300 makes
        # scale * alpha overflow at alpha 1e9, and the width at alpha 1e8
        scale = np.exp(np.round(rng.random(n), 1))
        scale[::3] = 1e300
        y = y_hat + scale * rng.standard_normal(n)
        # labels on the upper bound at alpha 1.0, and past it by 5x the 1e-12 slack
        edge = y_hat + scale * 1.0
        y[1::4], y[2::4] = edge[1::4], edge[2::4] + 5e-12 * np.maximum(np.abs(edge[2::4]), 1.0)
        alpha = {0.1: 0.0, 0.2: 0.5, 0.3: 1.0, 0.5: 2.5, 0.7: 1e8, 0.8: 1e9, 0.9: math.inf}
        with np.errstate(over="ignore"):
            intervals = intervals_for(y_hat, scale, alpha)
            report = evaluate_model("m", y_hat, scale, alpha, np.zeros(n), y, 0.5, (0.0, 5.0))
            covs, stats = report["curve"]["coverage"], list(report["width_stats"].values())
            assert repr(covs) == repr([oracle_coverage(intervals[cl], y) for cl in alpha])
            assert repr(stats) == repr([oracle_width_stats(intervals[cl]) for cl in alpha])
        assert report["retrieval"] == screen_counts(intervals[0.5], y, (0.0, 5.0))
        kinds = {(s["n_finite"] == n, s["n_finite"] == 0) for s in stats}
        assert kinds == ({(True, False), (False, True)} if n == 1
                         else {(True, False), (False, False), (False, True)})

    def test_one_level_is_coverage_and_width_stats(self):
        ivs = [interval(0, 1), interval(0, 3), interval(-math.inf, math.inf), interval(2, 2)]
        y = [0.5, 4.0, 7.0, 2.0]
        (cov,), (stats,) = level_metrics([ivs], y)
        assert cov == oracle_coverage(ivs, y) == 0.75
        assert stats == oracle_width_stats(ivs)


class TestEvaluateModel:
    @pytest.mark.parametrize("name, value", [("y_hat", math.nan), ("sigma", math.nan),
                                             ("scale", math.inf), ("scale", math.nan)])
    def test_non_finite_factors_rejected(self, name, value):
        # a report of them was not strict JSON, and an infinite scale passed
        columns = {"y_hat": np.zeros(3), "sigma": np.zeros(3), "scale": np.ones(3)}
        columns[name][1] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            evaluate_model("m", columns["y_hat"], columns["scale"], {0.8: 1.0},
                           columns["sigma"], np.zeros(3), 0.8, (5.0,))


class TestScreenClassify:
    def test_spanning_is_uncertain(self):
        assert classify_one(interval(6, 8), 7.5, 7) == "uncertain"
        assert classify_one(interval(6, 8), 6.5, 7) == "uncertain"

    def test_true_positive(self):
        assert classify_one(interval(7.5, 8.5), 8.0, 7) == "true_positive"

    def test_false_negative(self):
        assert classify_one(interval(4.0, 6.5), 7.2, 7) == "false_negative"

    def test_false_positive_and_true_negative(self):
        assert classify_one(interval(7.5, 8.5), 6.0, 7) == "false_positive"
        assert classify_one(interval(4.0, 6.5), 5.0, 7) == "true_negative"

    def test_raising_cutoff_never_fn_to_tp(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            lo = rng.uniform(3, 9)
            hi = lo + rng.uniform(0, 3)
            y = rng.uniform(3, 12)
            cats = [classify_one(interval(lo, hi), y, c) for c in (5, 6, 7, 8, 9)]
            for a, b in zip(cats, cats[1:]):
                assert not (a == "false_negative" and b == "true_positive")


class TestScreenCounts:
    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(1)
        ivs = [interval(c - w, c + w) for c, w in zip(rng.uniform(4, 10, 50), rng.uniform(0, 2, 50))]
        y = rng.uniform(4, 10, 50)
        for rc in screen_counts(ivs, y):
            assert sum(rc[c] for c in CATEGORIES) == 50

    def test_all_unbounded_all_uncertain(self):
        ivs = [interval(-math.inf, math.inf)] * 5
        for rc in screen_counts(ivs, [5.5] * 5):
            assert rc["uncertain"] == 5

    def test_oracle_predictor(self):
        y = [4.2, 5.7, 8.3]
        ivs = [interval(v, v) for v in y]
        for rc in screen_counts(ivs, y):
            assert rc["uncertain"] == 0
            assert rc["false_positive"] == 0 and rc["false_negative"] == 0

    def test_tp_percent_definitions(self):
        # at cutoff 7: 3 tp, 1 fp, 2 fn, 2 tn and 2 uncertain
        ivs = [interval(7.5, 8.5)] * 4 + [interval(4.0, 6.5)] * 4 + [interval(6, 8)] * 2
        y = [8.0, 8.0, 8.0, 6.0, 7.2, 7.2, 5.0, 5.0, 7.5, 7.5]
        (rc,) = screen_counts(ivs, y, cutoffs=(7,))
        assert [rc[c] for c in CATEGORIES] == [3, 1, 2, 2, 2]
        assert rc["tp_percent_of_test"] == pytest.approx(30.0)
        assert rc["tp_percent_of_calls"] == pytest.approx(75.0)


def make_report(model="m", rmse_val=0.5, covs=(0.2, 0.8), r2=0.99):
    ws = {"mean": 1.0, "median": 1.0, "q1": 1.0, "q3": 1.0, "min": 1.0, "max": 1.0,
          "fraction_unbounded": 0.0, "n_finite": 4}
    retr = [{"cutoff": c, "uncertain": 1, "true_positive": 1, "false_positive": 1,
             "false_negative": 1, "true_negative": 0} for c in (5.0, 6.0)]
    return {"model": model, "rmse": rmse_val, "default_cl": 0.8,
            "curve": {"cl": [0.2, 0.8], "coverage": list(covs), "r_squared": r2},
            "width_stats": {"0.2": ws, "0.8": ws}, "retrieval": retr,
            "sigma": [0.0] * 4, "abs_error": [0.0] * 4, "sigma_error_correlation": None}


class TestAggregateRuns:
    def test_singleton(self):
        agg = aggregate_runs([make_report()])
        assert agg["rmse"]["mean"] == 0.5 and agg["rmse"]["std"] == 0.0
        assert agg["n_runs"] == 1

    def test_identical_reports_zero_std(self):
        agg = aggregate_runs([make_report(), make_report()])
        assert agg["rmse"]["std"] == 0.0
        assert agg["coverage"]["0.8"]["std"] == 0.0

    def test_mean_of_two(self):
        agg = aggregate_runs([make_report(rmse_val=0.4), make_report(rmse_val=0.6)])
        assert agg["rmse"]["mean"] == pytest.approx(0.5)

    def test_mismatched_grids_rejected(self):
        a = make_report()
        bad = {**a, "curve": {"cl": [0.1, 0.9], "coverage": [0.1, 0.9], "r_squared": 1.0}}
        with pytest.raises(ValueError):
            aggregate_runs([a, bad])


class TestSigmaErrorPairs:
    def test_correlation_sign(self):
        passes = np.array([[0.0, 0.0], [0.0, 2.0], [0.0, 4.0]])
        preds = from_passes(passes)
        y = preds.means + np.array([0.0, 0.5, 2.0])
        corr = sigma_error_pairs(preds.means, preds.stds, y)
        assert corr is not None and corr > 0.9
