"""Experiment orchestration: repeated splits, training with retry, both
conformal pipelines, evaluation, and deterministic report emission.

Every output byte is a function of (config, seed): floats are written with
repr(), JSON keys are sorted, and no timestamps are recorded, so rerunning
an experiment reproduces the manifest digests exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .config import ExperimentConfig
from .conformal import ConformalResult, dropout_icp, rf_ccp
from .data import Dataset, load_table, make_synthetic, random_split
from .evaluate import (
    CATEGORIES,
    aggregate_runs,
    evaluate_model,
    report_from_dict,
    report_to_dict,
)
from .net import TrainingDivergedError, train
from .seeds import derive_seed


@dataclass
class RunArtifacts:
    out_dir: str
    reports: dict  # model key -> list[EvaluationReport] over successful runs
    failures: list  # (run index, model key, reason)
    aggregate: dict
    manifest: dict


def _fmt(value) -> str:
    # plain-float repr keeps every bit and avoids numpy scalar reprs
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_experiment_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.dataset is not None:
        return load_table(cfg.dataset)
    return make_synthetic(
        n=cfg.synthetic_n,
        d=cfg.synthetic_d,
        noise=cfg.synthetic_noise,
        scale=cfg.synthetic_scale,
        seed=derive_seed(cfg.seed, "data"),
    )


def train_with_retry(train_set, val_set, net_cfg, seed, retry_limit):
    """Retrain with derived seeds while the convergence gate fails.

    Returns (model, log, attempts) with model=None if every attempt failed.
    """
    last = (None, None)
    for attempt in range(retry_limit + 1):
        try:
            model, log = train(train_set, val_set, net_cfg, derive_seed(seed, "attempt", attempt))
        except TrainingDivergedError:
            continue
        last = (model, log)
        if log.converged:
            return model, log, attempt + 1
    return None, last[1], retry_limit + 1


def _dump_conformal(prefix: str, result: ConformalResult, test_ids, run_dir) -> None:
    detail = result.calibration_detail
    order = np.argsort(detail.alpha, kind="stable")
    write_csv(
        os.path.join(run_dir, f"{prefix}_calibration.csv"),
        ["id", "y", "y_hat", "sigma", "alpha"],
        [
            [detail.ids[i], float(detail.y[i]), float(detail.y_hat[i]),
             float(detail.sigma[i]), float(detail.alpha[i])]
            for i in order
        ],
    )
    y_hat = result.test_prediction.means
    rows = []
    for cl in sorted(result.intervals):
        lower, upper = result.intervals[cl].T
        half = upper - y_hat
        rows += zip(test_ids, [float(cl)] * len(y_hat), y_hat.tolist(), half.tolist(),
                    lower.tolist(), upper.tolist(), np.isinf(half).astype(int).tolist())
    write_csv(
        os.path.join(run_dir, f"{prefix}_intervals.csv"),
        ["id", "cl", "y_hat", "half_width", "lower", "upper", "unbounded"],
        rows,
    )


def run_single(cfg: ExperimentConfig, dataset: Dataset, run_index: int, out_dir: str):
    """One split/train/calibrate/evaluate cycle; writes its own run directory.

    Returns (reports_by_model_key_as_dicts, failures).
    """
    run_dir = os.path.join(out_dir, f"run_{run_index:03d}")
    os.makedirs(run_dir, exist_ok=True)
    split = random_split(
        dataset.n_rows, cfg.fractions, derive_seed(cfg.seed, "run", run_index, "split")
    )
    write_csv(
        os.path.join(run_dir, "split.csv"),
        ["index", "partition"],
        sorted(
            [(int(i), "train") for i in split.train]
            + [(int(i), "validation") for i in split.validation]
            + [(int(i), "test") for i in split.test]
        ),
    )
    train_set = dataset.subset(split.train)
    val_set = dataset.subset(split.validation)
    test_set = dataset.subset(split.test)

    reports = {}
    failures = []

    if "dnn" in cfg.models:
        for p in cfg.dropout_p:
            key = f"dnn_p{p:g}"
            net_cfg = replace(cfg.net, dropout_p=p)
            model, log, attempts = train_with_retry(
                train_set, val_set, net_cfg,
                derive_seed(cfg.seed, "run", run_index, key, "train"),
                cfg.retry_limit,
            )
            if log is not None:
                write_csv(
                    os.path.join(run_dir, f"{key}_training_log.csv"),
                    ["epoch", "lr", "train_loss", "val_rmse"],
                    [
                        [e, log.learning_rates[e], log.train_losses[e], log.val_rmses[e]]
                        for e in range(log.n_epochs)
                    ],
                )
            if model is None:
                failures.append((run_index, key, f"not converged after {attempts} attempts"))
                continue
            result = dropout_icp(
                model, val_set, test_set, cfg.n_passes, cfg.cl_grid,
                derive_seed(cfg.seed, "run", run_index, key, "icp"),
            )
            report = evaluate_model(key, result, test_set.labels, cfg.cl_grid,
                                    cfg.default_cl, cfg.cutoffs)
            _dump_conformal(key, result, test_set.ids, run_dir)
            write_json(os.path.join(run_dir, f"{key}_report.json"), report_to_dict(report))
            reports[key] = report_to_dict(report)

    if "rf" in cfg.models:
        # RF uses train + validation for fitting; calibration comes from the
        # out-of-fold residuals inside that combined set.
        trainval = dataset.subset(np.concatenate([split.train, split.validation]))
        result = rf_ccp(
            trainval, test_set, cfg.forest, cfg.cv_folds, cfg.cl_grid,
            derive_seed(cfg.seed, "run", run_index, "rf"),
        )
        report = evaluate_model("rf", result, test_set.labels, cfg.cl_grid,
                                cfg.default_cl, cfg.cutoffs)
        _dump_conformal("rf", result, test_set.ids, run_dir)
        write_json(os.path.join(run_dir, "rf_report.json"), report_to_dict(report))
        reports["rf"] = report_to_dict(report)

    return reports, failures


def _run_single_star(args):
    return run_single(*args)


def run_experiment(cfg: ExperimentConfig, out_dir=None, only_run=None) -> RunArtifacts:
    """Execute all runs, aggregate, and write summary + manifest."""
    out_dir = out_dir or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    dataset = load_experiment_dataset(cfg)

    run_indices = [only_run] if only_run is not None else list(range(cfg.n_runs))
    jobs = [(cfg, dataset, r, out_dir) for r in run_indices]
    if cfg.workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            per_run = list(pool.map(_run_single_star, jobs))
    else:
        per_run = [run_single(*job) for job in jobs]
    failures = [f for _reports, fails in per_run for f in fails]

    if only_run is not None:
        # the summary covers every run on disk, not only the one just repeated
        kept = [f for f in _summary(out_dir).get("failures", []) if f["run"] != only_run]
        failures = sorted([(f["run"], f["model"], f["reason"]) for f in kept] + failures,
                          key=lambda f: f[0])
        return reaggregate(cfg, out_dir, failures)

    reports_by_model = {}
    for reports, _fails in per_run:
        for key, rd in reports.items():
            reports_by_model.setdefault(key, []).append(report_from_dict(rd))
    return _finish(reports_by_model, failures, out_dir, cfg.seed, cfg.n_runs, cfg.plots)


def _finish(reports_by_model, failures, out_dir, seed, n_runs, plots) -> RunArtifacts:
    aggregate = _aggregate_and_emit(reports_by_model, failures, out_dir, seed, n_runs, plots)
    return RunArtifacts(
        out_dir=out_dir,
        reports=reports_by_model,
        failures=failures,
        aggregate=aggregate,
        manifest=build_manifest(out_dir),
    )


def _aggregate_and_emit(reports_by_model, failures, out_dir, seed, n_runs, plots) -> dict:
    aggregate = {
        "seed": seed,
        "n_runs": n_runs,
        "models": {},
        "failures": [
            {"run": r, "model": key, "reason": reason} for r, key, reason in failures
        ],
    }
    for key, reports in sorted(reports_by_model.items()):
        aggregate["models"][key] = aggregate_runs(reports)
    write_json(os.path.join(out_dir, "summary.json"), aggregate)

    # Flat aggregate CSVs, one per table.
    curve_rows, width_rows, retr_rows = [], [], []
    for key, agg in sorted(aggregate["models"].items()):
        for cl, ms in sorted(agg["coverage"].items(), key=lambda kv: float(kv[0])):
            curve_rows.append([key, float(cl), ms["mean"], ms["std"]])
        for cl, ms in sorted(agg["mean_width"].items(), key=lambda kv: float(kv[0])):
            fu = agg["fraction_unbounded"][cl]
            width_rows.append([key, float(cl), ms["mean"], ms["std"], fu["mean"]])
        for cutoff, cats in sorted(agg["retrieval"].items(), key=lambda kv: float(kv[0])):
            retr_rows.append([key, float(cutoff)] + [cats[cat]["mean"] for cat in CATEGORIES])
    write_csv(os.path.join(out_dir, "calibration_curve.csv"),
              ["model", "cl", "coverage_mean", "coverage_std"], curve_rows)
    write_csv(os.path.join(out_dir, "width_stats.csv"),
              ["model", "cl", "mean_width_mean", "mean_width_std", "fraction_unbounded_mean"],
              width_rows)
    write_csv(os.path.join(out_dir, "retrieval_counts.csv"),
              ["model", "cutoff", *CATEGORIES], retr_rows)

    if plots:
        _emit_calibration_svg(aggregate, os.path.join(out_dir, "calibration_curve.svg"))
    return aggregate


def _emit_calibration_svg(aggregate: dict, path) -> None:
    """Minimal hand-rolled SVG so plot output stays byte-deterministic."""
    width, height, pad = 400, 400, 40
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{pad}" '
        'stroke="lightgray" stroke-dasharray="4"/>',
    ]
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    for i, (key, agg) in enumerate(sorted(aggregate["models"].items())):
        pts = []
        for cl, ms in sorted(agg["coverage"].items(), key=lambda kv: float(kv[0])):
            x = pad + float(cl) * (width - 2 * pad)
            y = height - pad - float(ms["mean"]) * (height - 2 * pad)
            pts.append(f"{x:.2f},{y:.2f}")
        color = palette[i % len(palette)]
        lines.append(f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}"/>')
        lines.append(f'<text x="{pad+5}" y="{pad+15*(i+1)}" fill="{color}" '
                     f'font-size="12">{key}</text>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def build_manifest(out_dir) -> dict:
    """SHA-256 digest of every emitted file; written as manifest.json."""
    entries = []
    for root, _dirs, files in os.walk(out_dir):
        for name in sorted(files):
            if name == "manifest.json":
                continue
            full = os.path.join(root, name)
            rel = os.path.relpath(full, out_dir)
            with open(full, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            entries.append({"path": rel.replace(os.sep, "/"), "sha256": digest})
    entries.sort(key=lambda e: e["path"])
    manifest = {"files": entries}
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def _summary(out_dir) -> dict:
    path = os.path.join(out_dir, "summary.json")
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def reaggregate(cfg_or_none, out_dir, failures=None) -> RunArtifacts:
    """Rebuild summary + manifest from per-run report JSONs on disk.

    Seed, run count and failures come from cfg_or_none and ``failures`` when
    given, else from the summary already on disk.
    """
    reports_by_model = {}
    run_dirs = sorted(
        d for d in os.listdir(out_dir)
        if d.startswith("run_") and os.path.isdir(os.path.join(out_dir, d))
    )
    if not run_dirs:
        raise FileNotFoundError(f"no run_* directories under {out_dir}")
    for rd in run_dirs:
        for name in sorted(os.listdir(os.path.join(out_dir, rd))):
            if name.endswith("_report.json"):
                with open(os.path.join(out_dir, rd, name), "r", encoding="utf-8") as fh:
                    report = report_from_dict(json.load(fh))
                reports_by_model.setdefault(report.model, []).append(report)
    old = _summary(out_dir)
    seed, n_runs, plots = old.get("seed", 0), old.get("n_runs", len(run_dirs)), False
    if failures is None:
        failures = [(f["run"], f["model"], f["reason"]) for f in old.get("failures", [])]
    if cfg_or_none is not None:
        seed, n_runs, plots = cfg_or_none.seed, cfg_or_none.n_runs, cfg_or_none.plots
    return _finish(reports_by_model, failures, out_dir, seed, n_runs, plots)
