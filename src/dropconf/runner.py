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
import re
import shutil
from dataclasses import dataclass, replace

import numpy as np

from .config import ExperimentConfig
from .conformal import ConformalResult, dropout_icp, rf_ccp
from .data import Dataset, load_table, make_synthetic, random_split
from .evaluate import CATEGORIES, aggregate_runs, evaluate_model
from .net import TrainingDivergedError, train
from .seeds import derive_seed


@dataclass
class RunArtifacts:
    out_dir: str
    reports: dict  # model key -> list of report dicts on disk, in run order
    failures: list  # (run index, model key, reason)
    aggregate: dict
    manifest: dict


class _Cells(list):
    """A column already formatted as CSV cell strings."""


_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _format_column(column) -> _Cells:
    """One column as CSV cell strings; a _Cells column is returned as is, so
    a column shared by many blocks can be formatted once up front.

    Float arrays go through repr() of plain Python floats, so every bit
    survives; integer arrays through str(). Other columns keep a per-cell
    rule: repr(float(v)) for floats (numpy float64 scalars included, never
    their numpy repr), str(v) for anything else, quoted as csv.writer's
    QUOTE_MINIMAL quotes it when it holds a comma, quote, CR or LF.
    """
    if isinstance(column, _Cells):
        return column
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiu":
        return _Cells(map(repr if column.dtype.kind == "f" else str, column.tolist()))
    cells = (repr(float(v)) if isinstance(v, float) else str(v) for v in column)
    return _Cells('"' + c.replace('"', '""') + '"' if _NEEDS_QUOTES.search(c) else c for c in cells)


def write_csv(path, header, blocks) -> None:
    """Write a table given as blocks of equal-length columns, one column per
    header name; the rows of each block follow those of the block before.

    Each column is formatted once (see _format_column) and each block is written
    before the next is read, so a generator of blocks keeps only one block's
    strings in memory.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            if len(block) != len(header) or len({len(col) for col in block}) > 1:
                raise ValueError(f"{path}: a block needs {len(header)} equal-length columns")
            fh.writelines(",".join(row) + "\n" for row in zip(*map(_format_column, block)))


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
    write_csv(
        os.path.join(run_dir, f"{prefix}_calibration.csv"),
        ["id", "y", "y_hat", "sigma", "alpha"],
        [[detail.ids, detail.y, detail.y_hat, detail.sigma, detail.alpha]],
    )
    write_csv(
        os.path.join(run_dir, f"{prefix}_intervals.csv"),
        ["id", "cl", "y_hat", "half_width", "lower", "upper", "unbounded"],
        _interval_blocks(result, test_ids),
    )


def _interval_blocks(result: ConformalResult, test_ids):
    """One block of interval-table columns per confidence level, ascending;
    the id and y_hat cells are formatted once and shared by every level."""
    y_hat = result.test_prediction.means
    ids, y_hat_cells = _format_column(test_ids), _format_column(y_hat)
    for cl in sorted(result.intervals):
        lower, upper = result.intervals[cl].T
        half = upper - y_hat
        yield [ids, _Cells([repr(float(cl))] * len(ids)), y_hat_cells, half, lower, upper,
               np.isinf(half).astype(int)]


def run_single(cfg: ExperimentConfig, dataset: Dataset, run_index: int, out_dir: str):
    """One split/train/calibrate/evaluate cycle; writes its own run directory.

    Returns the run's failures as (run index, model key, reason).
    """
    run_dir = os.path.join(out_dir, f"run_{run_index:03d}")
    os.makedirs(run_dir, exist_ok=True)
    split = random_split(
        dataset.n_rows, cfg.fractions, derive_seed(cfg.seed, "run", run_index, "split")
    )
    partition = np.empty(dataset.n_rows, dtype=object)
    for name in ("train", "validation", "test"):
        partition[getattr(split, name)] = name
    write_csv(
        os.path.join(run_dir, "split.csv"),
        ["index", "partition"],
        [[np.arange(dataset.n_rows), partition]],
    )
    train_set = dataset.subset(split.train)
    val_set = dataset.subset(split.validation)
    test_set = dataset.subset(split.test)

    failures = []

    def emit(key, result):
        report = evaluate_model(key, result, test_set.labels, cfg.cl_grid,
                                cfg.default_cl, cfg.cutoffs)
        _dump_conformal(key, result, test_set.ids, run_dir)
        write_json(os.path.join(run_dir, f"{key}_report.json"), report)

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
                    [[range(log.n_epochs), log.learning_rates, log.train_losses,
                      log.val_rmses]],
                )
            if model is None:
                failures.append((run_index, key, f"not converged after {attempts} attempts"))
                continue
            emit(key, dropout_icp(
                model, val_set, test_set, cfg.n_passes, cfg.cl_grid,
                derive_seed(cfg.seed, "run", run_index, key, "icp"),
            ))

    if "rf" in cfg.models:
        # RF uses train + validation for fitting; calibration comes from the
        # out-of-fold residuals inside that combined set.
        trainval = dataset.subset(np.concatenate([split.train, split.validation]))
        emit("rf", rf_ccp(
            trainval, test_set, cfg.forest, cfg.cv_folds, cfg.cl_grid,
            derive_seed(cfg.seed, "run", run_index, "rf"),
        ))

    return failures


def run_experiment(cfg: ExperimentConfig, out_dir=None, only_run=None) -> RunArtifacts:
    """Execute the runs, then rebuild summary + manifest with reaggregate.

    A full run first removes every run_<digits> directory in out_dir, and
    ``only_run`` R removes run R's, so no run directory keeps a file that an
    earlier invocation wrote for the runs executed now.
    """
    if only_run is not None and not 0 <= only_run < cfg.n_runs:
        raise ValueError(f"only_run: {only_run} not in [0, {cfg.n_runs})")
    out_dir = out_dir or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    dataset = load_experiment_dataset(cfg)
    cfg.check_rows(dataset.n_rows)

    run_indices = [only_run] if only_run is not None else list(range(cfg.n_runs))
    for name in _run_dirs(out_dir):
        if only_run is None or int(name[4:]) == only_run:
            shutil.rmtree(os.path.join(out_dir, name))
    jobs = [(cfg, dataset, r, out_dir) for r in run_indices]
    if cfg.workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: a costly import
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            per_run = list(pool.map(run_single, *zip(*jobs)))
    else:
        per_run = [run_single(*job) for job in jobs]
    return reaggregate(cfg, out_dir, dict(zip(run_indices, per_run)))


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


def _run_dirs(out_dir) -> list:
    """Every run_<digits> directory in out_dir, in run index order."""
    names = [d for d in os.listdir(out_dir) if d.startswith("run_") and d[4:].isdecimal()
             and os.path.isdir(os.path.join(out_dir, d))]
    return sorted(names, key=lambda d: (int(d[4:]), d))


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def reaggregate(cfg_or_none, out_dir, ran=None) -> RunArtifacts:
    """Rebuild summary.json, the flat aggregate CSVs and the manifest from
    the per-run report JSONs on disk, run directories in index order.

    Seed and run count come from cfg_or_none when given, else from the
    summary on disk. ``ran`` maps each run just executed to its failures; a
    failure in the old summary stays only if its run is below the run count
    and not in ``ran``.
    """
    run_dirs = _run_dirs(out_dir)
    if not run_dirs:
        raise FileNotFoundError(f"no run_* directories under {out_dir}")
    reports_by_model = {}
    for rd in run_dirs:
        for name in sorted(os.listdir(os.path.join(out_dir, rd))):
            if name.endswith("_report.json"):
                report = _read_json(os.path.join(out_dir, rd, name))
                reports_by_model.setdefault(report["model"], []).append(report)
    summary_path = os.path.join(out_dir, "summary.json")
    old = _read_json(summary_path) if os.path.exists(summary_path) else {}
    seed, n_runs = old.get("seed", 0), old.get("n_runs", len(run_dirs))
    if cfg_or_none is not None:
        seed, n_runs = cfg_or_none.seed, cfg_or_none.n_runs
    ran = ran or {}
    kept = [(f["run"], f["model"], f["reason"]) for f in old.get("failures", [])
            if f["run"] < n_runs and f["run"] not in ran]
    failures = sorted(kept + [f for fails in ran.values() for f in fails], key=lambda f: f[0])

    aggregate = {
        "seed": seed, "n_runs": n_runs,
        "models": {key: aggregate_runs(rs) for key, rs in sorted(reports_by_model.items())},
        "failures": [{"run": r, "model": key, "reason": reason} for r, key, reason in failures],
    }
    write_json(summary_path, aggregate)

    # Flat aggregate CSVs, one per table and one block per model.
    curve, width, retrieval = [], [], []
    for key, agg in sorted(aggregate["models"].items()):
        cls = sorted(agg["coverage"], key=float)
        curve.append([[key] * len(cls), [float(cl) for cl in cls],
                      [agg["coverage"][cl]["mean"] for cl in cls],
                      [agg["coverage"][cl]["std"] for cl in cls]])
        cls = sorted(agg["mean_width"], key=float)
        width.append([[key] * len(cls), [float(cl) for cl in cls],
                      [agg["mean_width"][cl]["mean"] for cl in cls],
                      [agg["mean_width"][cl]["std"] for cl in cls],
                      [agg["fraction_unbounded"][cl]["mean"] for cl in cls]])
        cutoffs = sorted(agg["retrieval"], key=float)
        retrieval.append([[key] * len(cutoffs), [float(c) for c in cutoffs]]
                         + [[agg["retrieval"][c][cat]["mean"] for c in cutoffs]
                            for cat in CATEGORIES])
    write_csv(os.path.join(out_dir, "calibration_curve.csv"),
              ["model", "cl", "coverage_mean", "coverage_std"], curve)
    write_csv(os.path.join(out_dir, "width_stats.csv"),
              ["model", "cl", "mean_width_mean", "mean_width_std", "fraction_unbounded_mean"],
              width)
    write_csv(os.path.join(out_dir, "retrieval_counts.csv"),
              ["model", "cutoff", *CATEGORIES], retrieval)
    return RunArtifacts(out_dir=out_dir, reports=reports_by_model, failures=failures,
                        aggregate=aggregate, manifest=build_manifest(out_dir))
