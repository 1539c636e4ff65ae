"""Validity, efficiency, accuracy, and virtual-screening retrieval metrics.

A run's report is the plain JSON-ready dict that evaluate_model builds: it
is written as-is to ``<model>_report.json``, and aggregate_runs reads either
those dicts or the files loaded back with json.load.
"""

from __future__ import annotations

import numpy as np

from .ensemble import EnsemblePrediction


CATEGORIES = ("true_positive", "false_positive", "false_negative", "true_negative", "uncertain")


def rmse(y_true, y_hat) -> float:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y_true.shape != y_hat.shape or y_true.size == 0:
        raise ValueError("rmse requires equal non-empty sequences")
    return float(np.sqrt(np.mean((y_true - y_hat) ** 2)))


def _bounds(intervals):
    """(lower, upper) columns of an (n, 2) array of [lower, upper] rows."""
    bounds = np.asarray(intervals, dtype=np.float64).reshape(len(intervals), 2)
    return bounds[:, 0], bounds[:, 1]


def _labels(y_true, n: int) -> np.ndarray:
    y_true = np.asarray(y_true, dtype=np.float64)
    if len(y_true) != n:
        raise ValueError("intervals and labels must have the same length")
    return y_true


def coverage(intervals, y_true) -> float:
    """Fraction of instances with lower <= y <= upper (closed intervals).

    A relative slack of 1e-12 absorbs the rounding of the e^sigma round trip,
    so a calibration point sitting exactly on its own bound still counts as
    covered; unbounded intervals cover everything.
    """
    lower, upper = _bounds(intervals)
    y = _labels(y_true, len(lower))
    magnitude = np.maximum(np.abs(lower), np.abs(upper))
    slack = 1e-12 * np.maximum(magnitude, np.maximum(np.abs(y), 1.0))
    hits = int(np.count_nonzero((lower - slack <= y) & (y <= upper + slack)))
    return hits / len(y)


def calibration_curve(intervals_by_cl: dict, y_true, cl_grid) -> dict:
    """{"cl", "coverage", "r_squared"}: empirical coverage per grid cl and the
    squared Pearson correlation between cl and coverage across the grid.

    r_squared is None when undefined (fewer than 2 points, or zero variance
    in coverage across the grid).
    """
    cls = [float(c) for c in cl_grid]
    covs = [coverage(intervals_by_cl[c], y_true) for c in cls]
    r2 = None
    if len(cls) >= 2 and np.ptp(covs) > 0 and np.ptp(cls) > 0:
        r = np.corrcoef(cls, covs)[0, 1]
        r2 = float(r * r)
    return {"cl": cls, "coverage": covs, "r_squared": r2}


def width_stats(intervals) -> dict:
    """Summary of interval widths; unbounded intervals counted separately,
    and every statistic NaN when no interval is bounded."""
    lower, upper = _bounds(intervals)
    if len(lower) == 0:
        raise ValueError("width_stats requires at least one interval")
    widths = upper - lower
    finite = widths[np.isfinite(widths)]
    frac_unbounded = 1.0 - len(finite) / len(widths)
    stats = dict.fromkeys(("mean", "median", "q1", "q3", "min", "max"), float("nan"))
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


def screen_counts(intervals, y_true, cutoffs=(5, 6, 7, 8, 9)) -> list:
    """Retrieval tallies per cutoff over the whole test set: one dict per
    cutoff with the cutoff, a count per CATEGORIES entry, and the true
    positives as a percentage of all test instances (tp_percent_of_test) and
    of the positive calls tp + fp (tp_percent_of_calls, 0 without calls).

    Strict inequalities throughout: an interval whose lower bound exceeds the
    cutoff is a positive call, one whose upper bound is below it is a
    negative call, anything spanning the cutoff is uncertain.
    """
    lower, upper = _bounds(intervals)
    y = _labels(y_true, len(lower))
    if len(y) == 0:
        raise ValueError("intervals and labels must be equal-length and non-empty")
    if not np.isfinite(y).all():
        raise ValueError("y_true must be finite")
    out = []
    for cutoff in cutoffs:
        positive = lower > cutoff
        negative = ~positive & (upper < cutoff)
        active = y > cutoff
        calls = {
            "true_positive": positive & active,
            "false_positive": positive & ~active,
            "false_negative": negative & active,
            "true_negative": negative & ~active,
            "uncertain": ~positive & ~negative,
        }
        counts = {cat: int(np.count_nonzero(mask)) for cat, mask in calls.items()}
        tp, n_calls = counts["true_positive"], counts["true_positive"] + counts["false_positive"]
        out.append({
            "cutoff": float(cutoff),
            **counts,
            "tp_percent_of_test": 100.0 * tp / len(y),
            "tp_percent_of_calls": 100.0 * tp / n_calls if n_calls else 0.0,
        })
    return out


def sigma_error_pairs(preds: EnsemblePrediction, y_true):
    """Raw (sigma, |error|) pairs plus their Pearson correlation (or None)."""
    y_true = np.asarray(y_true, dtype=np.float64)
    abs_err = np.abs(preds.means - y_true)
    corr = None
    if len(y_true) >= 2 and np.ptp(preds.stds) > 0 and np.ptp(abs_err) > 0:
        corr = float(np.corrcoef(preds.stds, abs_err)[0, 1])
    return preds.stds, abs_err, corr


def evaluate_model(
    model_name: str,
    result,
    y_test,
    cl_grid,
    default_cl: float = 0.80,
    cutoffs=(5, 6, 7, 8, 9),
) -> dict:
    """Full per-run report from a ConformalResult and the test labels, as
    the JSON-ready dict written to ``<model>_report.json``. Width stats are
    keyed by repr(cl); retrieval counts are taken at the default cl."""
    y_test = np.asarray(y_test, dtype=np.float64)
    cls = [float(c) for c in cl_grid]
    if float(default_cl) not in result.intervals:
        raise ValueError("result does not contain intervals at the default cl")
    sigmas, abs_err, corr = sigma_error_pairs(result.test_prediction, y_test)
    return {
        "model": model_name,
        "rmse": rmse(y_test, result.test_prediction.means),
        "default_cl": float(default_cl),
        "curve": calibration_curve(result.intervals, y_test, cls),
        "width_stats": {repr(c): width_stats(result.intervals[c]) for c in cls},
        "retrieval": screen_counts(result.intervals[float(default_cl)], y_test, cutoffs),
        "sigma": sigmas.tolist(),
        "abs_error": abs_err.tolist(),
        "sigma_error_correlation": corr,
    }


def _mean_std(values) -> dict:
    arr = np.asarray([v for v in values if v is not None], dtype=np.float64)
    if arr.size == 0:
        return {"mean": None, "std": None, "n": 0}
    return {"mean": float(arr.mean()), "std": float(arr.std()), "n": int(arr.size)}


def aggregate_runs(reports: list) -> dict:
    """Mean and standard deviation of every metric across repeated runs.

    Takes report dicts as evaluate_model returns them. All reports must
    share the same cl grid and cutoffs. Retrieval counts are averaged across
    runs.
    """
    if not reports:
        raise ValueError("aggregate_runs requires at least one report")
    grid = reports[0]["curve"]["cl"]
    cutoffs = [rc["cutoff"] for rc in reports[0]["retrieval"]]
    for r in reports[1:]:
        if r["curve"]["cl"] != grid:
            raise ValueError("reports have mismatched cl grids")
        if [rc["cutoff"] for rc in r["retrieval"]] != cutoffs:
            raise ValueError("reports have mismatched cutoffs")
    agg = {
        "n_runs": len(reports),
        "rmse": _mean_std([r["rmse"] for r in reports]),
        "r_squared": _mean_std([r["curve"]["r_squared"] for r in reports]),
        "sigma_error_correlation": _mean_std(
            [r["sigma_error_correlation"] for r in reports]
        ),
        "coverage": {},
        "mean_width": {},
        "fraction_unbounded": {},
        "retrieval": {},
    }
    for i, cl in enumerate(grid):
        agg["coverage"][repr(float(cl))] = _mean_std([r["curve"]["coverage"][i] for r in reports])
    for key in reports[0]["width_stats"]:
        agg["mean_width"][key] = _mean_std([r["width_stats"][key]["mean"] for r in reports])
        agg["fraction_unbounded"][key] = _mean_std(
            [r["width_stats"][key]["fraction_unbounded"] for r in reports]
        )
    for j, cutoff in enumerate(cutoffs):
        agg["retrieval"][repr(float(cutoff))] = {
            cat: _mean_std([r["retrieval"][j][cat] for r in reports]) for cat in CATEGORIES
        }
    return agg
