import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dropconf.ensemble import from_passes
from dropconf.evaluate import (
    CATEGORIES,
    CalibrationCurve,
    EvaluationReport,
    RetrievalCounts,
    WidthStats,
    aggregate_runs,
    calibration_curve,
    coverage,
    rmse,
    screen_counts,
    sigma_error_pairs,
    width_stats,
)


def interval(lower, upper):
    return (lower, upper)


def classify_one(interval, y_true, cutoff):
    """The retrieval category screen_counts gives one instance."""
    (rc,) = screen_counts([interval], [y_true], cutoffs=(cutoff,))
    return next(cat for cat in CATEGORIES if getattr(rc, cat))


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
        assert coverage(ivs, [0, 100, -100]) == 1.0

    def test_boundary_is_covered(self):
        assert coverage([interval(0, 1)], [1.0]) == 1.0
        assert coverage([interval(0, 1)], [0.0]) == 1.0

    def test_half_covered(self):
        assert coverage([interval(0, 1), interval(0, 1)], [0.5, 2.0]) == 0.5


class TestCalibrationCurve:
    def test_perfect_calibration(self):
        grid = [0.2, 0.5, 0.8]
        n = 10
        intervals_by_cl = {}
        y = list(range(n))
        for cl in grid:
            hit = int(round(cl * n))
            intervals_by_cl[cl] = [interval(v - 0.5, v + 0.5) for v in y[:hit]] + [
                interval(v + 10, v + 11) for v in y[hit:]
            ]
        curve = calibration_curve(intervals_by_cl, y, grid)
        assert curve.coverages == tuple(grid)
        assert curve.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_constant_coverage(self):
        grid = [0.2, 0.8]
        ivs = [interval(-math.inf, math.inf)]
        curve = calibration_curve({0.2: ivs, 0.8: ivs}, [0.0], grid)
        assert curve.r_squared is None

    def test_single_point_grid(self):
        curve = calibration_curve({0.8: [interval(0, 1)]}, [0.5], [0.8])
        assert curve.r_squared is None


class TestWidthStats:
    def test_constant_widths(self):
        ws = width_stats([interval(0, 1)] * 4)
        assert ws.mean == 1.0 and ws.median == 1.0 and ws.q3 - ws.q1 == 0.0

    def test_even_count_median(self):
        ivs = [interval(0, w) for w in (1, 2, 3, 4)]
        assert width_stats(ivs).median == 2.5

    def test_unbounded_bookkeeping(self):
        ivs = [interval(0, 1), interval(0, 2), interval(0, 3), interval(-math.inf, math.inf)]
        ws = width_stats(ivs)
        assert ws.fraction_unbounded == 0.25
        assert ws.n_finite == 3
        assert ws.mean == 2.0


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
            assert rc.n_total == 50

    def test_all_unbounded_all_uncertain(self):
        ivs = [interval(-math.inf, math.inf)] * 5
        for rc in screen_counts(ivs, [5.5] * 5):
            assert rc.uncertain == 5

    def test_oracle_predictor(self):
        y = [4.2, 5.7, 8.3]
        ivs = [interval(v, v) for v in y]
        for rc in screen_counts(ivs, y):
            assert rc.uncertain == 0
            assert rc.false_positive == 0 and rc.false_negative == 0

    def test_tp_percent_definitions(self):
        rc = RetrievalCounts(cutoff=7, uncertain=2, true_positive=3,
                             false_positive=1, false_negative=2, true_negative=2)
        assert rc.tp_percent_of_test == pytest.approx(30.0)
        assert rc.tp_percent_of_calls == pytest.approx(75.0)


def make_report(model="m", rmse_val=0.5, covs=(0.2, 0.8), r2=0.99):
    grid = (0.2, 0.8)
    curve = CalibrationCurve(cls=grid, coverages=covs, r_squared=r2)
    ws = WidthStats(mean=1.0, median=1.0, q1=1.0, q3=1.0, min=1.0, max=1.0,
                    fraction_unbounded=0.0, n_finite=4)
    retr = [RetrievalCounts(cutoff=c, uncertain=1, true_positive=1, false_positive=1,
                            false_negative=1, true_negative=0) for c in (5.0, 6.0)]
    return EvaluationReport(model=model, rmse=rmse_val, curve=curve,
                            width_stats={0.2: ws, 0.8: ws}, retrieval=retr,
                            default_cl=0.8, sigma=np.zeros(4), abs_error=np.zeros(4),
                            sigma_error_correlation=None)


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
        bad = EvaluationReport(model="m", rmse=0.5,
                               curve=CalibrationCurve(cls=(0.1, 0.9), coverages=(0.1, 0.9), r_squared=1.0),
                               width_stats=a.width_stats, retrieval=a.retrieval,
                               default_cl=0.8, sigma=np.zeros(4), abs_error=np.zeros(4),
                               sigma_error_correlation=None)
        with pytest.raises(ValueError):
            aggregate_runs([a, bad])


class TestSigmaErrorPairs:
    def test_correlation_sign(self):
        passes = np.array([[0.0, 0.0], [0.0, 2.0], [0.0, 4.0]])
        preds = from_passes(passes)
        y = preds.means + np.array([0.0, 0.5, 2.0])
        sig, err, corr = sigma_error_pairs(preds, y)
        assert corr is not None and corr > 0.9
        assert np.array_equal(sig, preds.stds)
