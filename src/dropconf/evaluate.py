"""Validity, efficiency, accuracy, and virtual-screening retrieval metrics."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .ensemble import EnsemblePrediction


@dataclass(frozen=True)
class CalibrationCurve:
    """(confidence level, empirical coverage) points and their Pearson R^2.

    r_squared is None when undefined (fewer than 2 points, or zero variance
    in coverage across the grid).
    """

    cls: tuple
    coverages: tuple
    r_squared: float | None


@dataclass(frozen=True)
class WidthStats:
    mean: float
    median: float
    q1: float
    q3: float
    min: float
    max: float
    fraction_unbounded: float
    n_finite: int


CATEGORIES = ("true_positive", "false_positive", "false_negative", "true_negative", "uncertain")


@dataclass(frozen=True)
class RetrievalCounts:
    """Interval-vs-cutoff classification tallies for one potency cutoff.

    tp_percent_of_test uses all test instances as the denominator;
    tp_percent_of_calls uses only positive calls (tp + fp).
    """

    cutoff: float
    uncertain: int
    true_positive: int
    false_positive: int
    false_negative: int
    true_negative: int

    @property
    def n_total(self) -> int:
        return sum(getattr(self, cat) for cat in CATEGORIES)

    @property
    def tp_percent_of_test(self) -> float:
        return 100.0 * self.true_positive / self.n_total if self.n_total else 0.0

    @property
    def tp_percent_of_calls(self) -> float:
        calls = self.true_positive + self.false_positive
        return 100.0 * self.true_positive / calls if calls else 0.0


@dataclass
class EvaluationReport:
    model: str
    rmse: float
    curve: CalibrationCurve
    width_stats: dict  # cl -> WidthStats
    retrieval: list  # RetrievalCounts per cutoff, at the default cl
    default_cl: float
    sigma: np.ndarray  # per test instance
    abs_error: np.ndarray
    sigma_error_correlation: float | None


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


def calibration_curve(intervals_by_cl: dict, y_true, cl_grid) -> CalibrationCurve:
    """Empirical coverage per grid cl and the squared Pearson correlation
    between cl and coverage across the grid."""
    cls = tuple(float(c) for c in cl_grid)
    covs = tuple(coverage(intervals_by_cl[c], y_true) for c in cls)
    r2 = None
    if len(cls) >= 2:
        cov_arr = np.asarray(covs)
        cl_arr = np.asarray(cls)
        if np.ptp(cov_arr) > 0 and np.ptp(cl_arr) > 0:
            r = np.corrcoef(cl_arr, cov_arr)[0, 1]
            r2 = float(r * r)
    return CalibrationCurve(cls=cls, coverages=covs, r_squared=r2)


def width_stats(intervals) -> WidthStats:
    """Summary of interval widths; unbounded intervals counted separately."""
    lower, upper = _bounds(intervals)
    if len(lower) == 0:
        raise ValueError("width_stats requires at least one interval")
    widths = upper - lower
    finite = widths[np.isfinite(widths)]
    frac_unbounded = 1.0 - len(finite) / len(widths)
    if len(finite) == 0:
        nan = float("nan")
        return WidthStats(nan, nan, nan, nan, nan, nan, frac_unbounded, 0)
    return WidthStats(
        mean=float(finite.mean()),
        median=float(np.median(finite)),
        q1=float(np.percentile(finite, 25)),
        q3=float(np.percentile(finite, 75)),
        min=float(finite.min()),
        max=float(finite.max()),
        fraction_unbounded=frac_unbounded,
        n_finite=len(finite),
    )


def screen_counts(intervals, y_true, cutoffs=(5, 6, 7, 8, 9)) -> list:
    """RetrievalCounts per cutoff over the whole test set.

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
        out.append(RetrievalCounts(
            cutoff=float(cutoff),
            **{cat: int(np.count_nonzero(mask)) for cat, mask in calls.items()},
        ))
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
) -> EvaluationReport:
    """Full per-run report from a ConformalResult and the test labels."""
    y_test = np.asarray(y_test, dtype=np.float64)
    cls = [float(c) for c in cl_grid]
    if float(default_cl) not in result.intervals:
        raise ValueError("result does not contain intervals at the default cl")
    sigmas, abs_err, corr = sigma_error_pairs(result.test_prediction, y_test)
    return EvaluationReport(
        model=model_name,
        rmse=rmse(y_test, result.test_prediction.means),
        curve=calibration_curve(result.intervals, y_test, cls),
        width_stats={c: width_stats(result.intervals[c]) for c in cls},
        retrieval=screen_counts(result.intervals[float(default_cl)], y_test, cutoffs),
        default_cl=float(default_cl),
        sigma=sigmas,
        abs_error=abs_err,
        sigma_error_correlation=corr,
    )


def report_to_dict(report: EvaluationReport) -> dict:
    """JSON-serializable form, exact enough to re-aggregate from disk.

    Width stats and retrieval counts keep their field names as keys.
    """
    return {
        "model": report.model,
        "rmse": report.rmse,
        "default_cl": report.default_cl,
        "curve": {
            "cl": list(report.curve.cls),
            "coverage": list(report.curve.coverages),
            "r_squared": report.curve.r_squared,
        },
        "width_stats": {repr(cl): asdict(ws) for cl, ws in report.width_stats.items()},
        "retrieval": [
            {
                **asdict(rc),
                "tp_percent_of_test": rc.tp_percent_of_test,
                "tp_percent_of_calls": rc.tp_percent_of_calls,
            }
            for rc in report.retrieval
        ],
        "sigma": [float(s) for s in report.sigma],
        "abs_error": [float(e) for e in report.abs_error],
        "sigma_error_correlation": report.sigma_error_correlation,
    }


def report_from_dict(d: dict) -> EvaluationReport:
    curve = CalibrationCurve(
        cls=tuple(d["curve"]["cl"]),
        coverages=tuple(d["curve"]["coverage"]),
        r_squared=d["curve"]["r_squared"],
    )
    widths = {float(cl): WidthStats(**ws) for cl, ws in d["width_stats"].items()}
    retrieval = [
        RetrievalCounts(**{key: rc[key] for key in ("cutoff",) + CATEGORIES})
        for rc in d["retrieval"]
    ]
    return EvaluationReport(
        model=d["model"],
        rmse=d["rmse"],
        curve=curve,
        width_stats=widths,
        retrieval=retrieval,
        default_cl=d["default_cl"],
        sigma=np.asarray(d["sigma"]),
        abs_error=np.asarray(d["abs_error"]),
        sigma_error_correlation=d["sigma_error_correlation"],
    )


def _mean_std(values) -> dict:
    arr = np.asarray([v for v in values if v is not None], dtype=np.float64)
    if arr.size == 0:
        return {"mean": None, "std": None, "n": 0}
    return {"mean": float(arr.mean()), "std": float(arr.std()), "n": int(arr.size)}


def aggregate_runs(reports: list) -> dict:
    """Mean and standard deviation of every metric across repeated runs.

    All reports must share the same cl grid and cutoffs. Retrieval counts are
    averaged across runs.
    """
    if not reports:
        raise ValueError("aggregate_runs requires at least one report")
    grid = reports[0].curve.cls
    cutoffs = tuple(rc.cutoff for rc in reports[0].retrieval)
    for r in reports[1:]:
        if r.curve.cls != grid:
            raise ValueError("reports have mismatched cl grids")
        if tuple(rc.cutoff for rc in r.retrieval) != cutoffs:
            raise ValueError("reports have mismatched cutoffs")
    agg = {
        "n_runs": len(reports),
        "rmse": _mean_std([r.rmse for r in reports]),
        "r_squared": _mean_std([r.curve.r_squared for r in reports]),
        "sigma_error_correlation": _mean_std(
            [r.sigma_error_correlation for r in reports]
        ),
        "coverage": {},
        "mean_width": {},
        "fraction_unbounded": {},
        "retrieval": {},
    }
    for i, cl in enumerate(grid):
        agg["coverage"][repr(float(cl))] = _mean_std([r.curve.coverages[i] for r in reports])
    for cl in reports[0].width_stats:
        key = repr(float(cl))
        agg["mean_width"][key] = _mean_std([r.width_stats[cl].mean for r in reports])
        agg["fraction_unbounded"][key] = _mean_std(
            [r.width_stats[cl].fraction_unbounded for r in reports]
        )
    for j, cutoff in enumerate(cutoffs):
        agg["retrieval"][repr(float(cutoff))] = {
            cat: _mean_std([getattr(r.retrieval[j], cat) for r in reports])
            for cat in CATEGORIES
        }
    return agg
