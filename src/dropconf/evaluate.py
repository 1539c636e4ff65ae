"""Validity, efficiency, accuracy, and virtual-screening retrieval metrics.

A run's report is the plain JSON-ready dict that evaluate_model builds from
a run directory's factored interval files, forming the bounds once
(intervals_for) and scoring all levels in one pass (level_metrics): it is
written as-is to ``<model>_report.json``, an output only, for aggregate_runs.
"""

from __future__ import annotations

import numpy as np

from .conformal import intervals_for

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
    if len(y_true) != n or n == 0:
        raise ValueError("intervals and labels must be equal-length and non-empty")
    return y_true


def level_metrics(levels, y_true) -> tuple:
    """(coverages, width stats) of each level's (n, 2) [lower, upper] bounds.
    Coverage is the fraction of labels with lower <= y <= upper (closed): a
    relative slack of 1e-12 absorbs the rounding of the e^sigma round trip, so
    a calibration point on its own bound still counts as covered, and
    unbounded intervals cover everything. Width stats are None when no
    interval is bounded. Level by level, coverage is counted and the widths
    fill one (levels, n) array; each statistic is then one call over all
    levels whose widths are all finite, and one per level with some."""
    n = len(levels[0])
    y = _labels(y_true, n)
    widths, covs, y_magnitude = np.empty((len(levels), n)), [], np.maximum(np.abs(y), 1.0)
    for bounds, row in zip(levels, widths):
        lower, upper = _bounds(bounds)
        slack = 1e-12 * np.maximum(np.maximum(np.abs(lower), np.abs(upper)), y_magnitude)
        covs.append(int(np.count_nonzero((lower - slack <= y) & (y <= upper + slack))) / n)
        np.subtract(upper, lower, out=row)
    finite = np.isfinite(widths)
    n_finite, rows = finite.sum(axis=1).tolist(), {}
    whole = [i for i, k in enumerate(n_finite) if k == n]
    groups = [(whole, widths if len(whole) == len(widths) else widths[whole])]  # no copy if all
    groups += [([i], widths[i][finite[i]][None]) for i, k in enumerate(n_finite) if 0 < k < n]
    for at, w in groups:
        mean, low, high = w.mean(axis=1), w.min(axis=1), w.max(axis=1)  # then w is reordered
        median = np.median(w, axis=1, overwrite_input=True)
        q1, q3 = np.percentile(w, [25, 75], axis=1, overwrite_input=True)
        rows.update(zip(at, np.column_stack((mean, median, q1, q3, low, high)).tolist()))
    keys = ("mean", "median", "q1", "q3", "min", "max")
    return covs, [{**dict(zip(keys, rows.get(i, [None] * 6))), "fraction_unbounded": 1.0 - k / n,
                   "n_finite": k} for i, k in enumerate(n_finite)]


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


def sigma_error_pairs(y_hat, sigma, y_true):
    """The Pearson correlation of sigma with |error| per instance, or None."""
    abs_err = np.abs(y_hat - np.asarray(y_true, dtype=np.float64))
    if len(abs_err) >= 2 and np.ptp(sigma) > 0 and np.ptp(abs_err) > 0:
        return float(np.corrcoef(sigma, abs_err)[0, 1])
    return None


def evaluate_model(model_name: str, y_hat, scale, alpha: dict, sigma, y, default_cl: float,
                   cutoffs) -> dict:
    """Full per-run report from the interval factors (the test predictions,
    their scale and alpha: cl -> score, its keys the levels), the test sigma
    and the labels, as the JSON-ready dict written to ``<model>_report.json``.
    The curve's r_squared is the squared Pearson correlation of cl and
    coverage, None when undefined (under 2 levels, or no variance). Width
    stats are keyed by repr(cl); retrieval counts are at the default cl.
    Non-finite y_hat, sigma or scale is a ValueError: a report is strict JSON."""
    cls = sorted(alpha)
    if float(default_cl) not in alpha:
        raise ValueError(f"no intervals at the default cl {default_cl!r}")
    for name, values in (("y_hat", y_hat), ("sigma", sigma), ("scale", scale)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")
    intervals = intervals_for(y_hat, scale, alpha)
    covs, widths = level_metrics([intervals[c] for c in cls], y)
    r2 = None
    if len(cls) >= 2 and np.ptp(covs) > 0 and np.ptp(cls) > 0:
        r = np.corrcoef(cls, covs)[0, 1]
        r2 = float(r * r)
    return {
        "model": model_name,
        "rmse": rmse(y, y_hat),
        "default_cl": float(default_cl),
        "curve": {"cl": cls, "coverage": covs, "r_squared": r2},
        "width_stats": dict(zip(map(repr, cls), widths)),
        "retrieval": screen_counts(intervals[float(default_cl)], y, cutoffs),
        "sigma": sigma.tolist(),
        "sigma_error_correlation": sigma_error_pairs(y_hat, sigma, y),
    }


def _mean_std(values) -> dict:
    arr = np.asarray([v for v in values if v is not None], dtype=np.float64)
    if arr.size == 0:
        return {"mean": None, "std": None, "n": 0}
    return {"mean": float(arr.mean()), "std": float(arr.std()), "n": int(arr.size)}


def aggregate_runs(reports: list) -> dict:
    """Mean and standard deviation of every metric across repeated runs, from
    report dicts as evaluate_model returns them: all of one cl grid, which is
    checked, and of the same cutoffs. Retrieval counts are averaged too."""
    if not reports:
        raise ValueError("aggregate_runs requires at least one report")
    grid = reports[0]["curve"]["cl"]
    cutoffs = [rc["cutoff"] for rc in reports[0]["retrieval"]]
    for r in reports[1:]:
        if r["curve"]["cl"] != grid:
            raise ValueError("reports have mismatched cl grids")
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
