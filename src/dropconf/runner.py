"""Experiment orchestration: each run is its split plus one job per model;
reports are evaluated from the run files and emitted deterministically.

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

from .config import ConfigError, ExperimentConfig, dnn_key
from .conformal import ConformalResult, dropout_icp, rank_at_level, rf_ccp
from .data import DataError, Dataset, _csv_rows, load_table, make_synthetic, random_split
from .evaluate import CATEGORIES, aggregate_runs, evaluate_model
from .net import train
from .seeds import derive_seed


@dataclass
class RunArtifacts:
    out_dir: str
    reports: dict  # model key -> list of report dicts on disk, in run order
    failures: list  # (run index, model key, reason)
    aggregate: dict
    manifest: dict


# the files written to the top of an output directory, manifest.json aside
TOP_FILES = ("experiment.json", "summary.json", "calibration_curve.csv", "width_stats.csv",
             "retrieval_counts.csv")
# each CSV a run writes, by name ({} is a model key): its header
RUN_CSVS = {
    "split.csv": ["id", "partition"],
    "{}_calibration.csv": ["id", "y", "y_hat", "sigma", "alpha"],
    "{}_test.csv": ["id", "y", "y_hat", "sigma", "scale"],
    "{}_levels.csv": ["cl", "k", "alpha", "unbounded"],
    "{}_training_log.csv": ["epoch", "lr", "train_loss", "val_rmse"],
}
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _format_column(column) -> list:
    """One column as CSV cell strings.

    Float arrays go through repr() of plain Python floats, so every bit
    survives; integer arrays through str(). Other columns keep a per-cell
    rule: repr(float(v)) for floats (never a numpy float64's numpy repr), ""
    for None and str(v) for anything else, each as csv.writer writes and, by
    QUOTE_MINIMAL, quotes it: when it holds a comma, quote, CR or LF.
    """
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiu":
        return list(map(repr if column.dtype.kind == "f" else str, column.tolist()))
    cells = ("" if v is None else repr(float(v)) if isinstance(v, float) else str(v) for v in column)
    return ['"' + c.replace('"', '""') + '"' if _NEEDS_QUOTES.search(c) else c for c in cells]


def write_csv(path, header, blocks) -> None:
    """Write a table given as blocks of equal-length columns, one column per
    header name; the rows of each block follow those of the block before.
    Each column is formatted once (see _format_column).
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            if len(block) != len(header) or len({len(col) for col in block}) > 1:
                raise ValueError(f"{path}: a block needs {len(header)} equal-length columns")
            fh.writelines(",".join(row) + "\n" for row in zip(*map(_format_column, block)))


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def load_experiment_dataset(cfg: ExperimentConfig) -> Dataset:
    """The config's table with run's row checks made on it (ConfigError naming
    ``dataset`` if unreadable), or its synthetic data, checked at parse."""
    if cfg.dataset is None:
        return make_synthetic(n=cfg.synthetic_n, d=cfg.synthetic_d, noise=cfg.synthetic_noise,
                              scale=cfg.synthetic_scale, seed=derive_seed(cfg.seed, "data"))
    try:
        dataset = load_table(cfg.dataset)
    except (DataError, OSError) as exc:  # OSError: e.g. a directory or no read permission
        raise ConfigError(f"dataset: {exc}") from None
    cfg.check_rows(dataset.n_rows)
    return dataset


def _dump_conformal(prefix: str, result: ConformalResult, test: Dataset, run_dir) -> None:
    """The calibration rows, then the interval factors, one row per test
    instance and one per level: bounds y_hat -/+ scale * alpha, the line if alpha = inf."""
    cal, pred = result.calibration, result.test_prediction
    cls = sorted(result.alpha)
    alpha = np.array([result.alpha[cl] for cl in cls])
    ks = np.array([rank_at_level(len(cal.alpha), cl) for cl in cls])
    for name, columns in (
            ("{}_calibration.csv", [cal.ids, cal.y, cal.y_hat, cal.sigma, cal.alpha]),
            ("{}_test.csv", [test.ids, test.labels, pred.means, pred.stds, result.scale]),
            ("{}_levels.csv", [np.array(cls), ks, alpha, np.isinf(alpha).astype(int)])):
        write_csv(os.path.join(run_dir, name.format(prefix)), RUN_CSVS[name], [columns])


def _model_job(cfg: ExperimentConfig, dataset: Dataset, split, r: int, run_dir, p=None):
    """Fit, calibrate and write one model of run r into run_dir, as its own
    <key>_* files: the network at dropout rate p, retrained with derived seeds
    while it misses the convergence gate (it diverged or missed rmse_gate), or
    the forest if p is None. Returns the model's failure record, or None."""
    test_set = dataset.subset(split.test)
    if p is None:  # fits on train + validation; calibrates on the out-of-fold residuals in it
        key, result = "rf", rf_ccp(
            dataset.subset(np.concatenate([split.train, split.validation])), test_set,
            cfg.forest, cfg.cv_folds, cfg.cl_grid, derive_seed(cfg.seed, "run", r, "rf"))
    else:
        key, net_cfg = dnn_key(p), replace(cfg.net, dropout_p=p)
        train_set, val_set = dataset.subset(split.train), dataset.subset(split.validation)
        seed = derive_seed(cfg.seed, "run", r, key, "train")
        for attempt in range(cfg.retry_limit + 1):
            model, log = train(train_set, val_set, net_cfg, derive_seed(seed, "attempt", attempt))
            if log.converged:
                break
        write_csv(os.path.join(run_dir, f"{key}_training_log.csv"), RUN_CSVS["{}_training_log.csv"],
                  [[range(log.n_epochs), log.learning_rates, log.train_losses, log.val_rmses]])
        if not log.converged:
            return {"model": key, "reason": f"not converged after {attempt + 1} attempts"}
        result = dropout_icp(model, val_set, test_set, cfg.n_passes, cfg.cl_grid,
                             derive_seed(cfg.seed, "run", r, key, "icp"))
    _dump_conformal(key, result, test_set, run_dir)
    return None


def run_single(cfg: ExperimentConfig, dataset: Dataset, run_index: int, out_dir: str) -> None:
    """Run r's split, written to run_<r>.partial, then one _model_job per model
    in config order: each dropout rate ascending, then rf. failures.json lists
    the models that failed, if any, before the directory becomes run_<r>."""
    run_dir = os.path.join(out_dir, f"run_{run_index:03d}.partial")
    os.makedirs(run_dir)
    split = random_split(
        dataset.n_rows, cfg.fractions, derive_seed(cfg.seed, "run", run_index, "split")
    )
    partition = np.empty(dataset.n_rows, dtype=object)
    for name in ("train", "validation", "test"):
        partition[getattr(split, name)] = name
    write_csv(os.path.join(run_dir, "split.csv"), RUN_CSVS["split.csv"], [[dataset.ids, partition]])
    rates = cfg.dropout_p if "dnn" in cfg.models else ()
    jobs = (_model_job(cfg, dataset, split, run_index, run_dir, p)
            for p in ([*rates, None] if "rf" in cfg.models else rates))  # None: the forest
    failures = [failure for failure in jobs if failure is not None]
    if failures:
        write_json(os.path.join(run_dir, "failures.json"), failures)
    os.rename(run_dir, run_dir.removesuffix(".partial"))


def run_experiment(cfg: ExperimentConfig, out_dir=None, only_run=None) -> RunArtifacts:
    """Execute the runs, then rebuild summary + manifest with reaggregate.

    A full run first removes every run_<digits>[.partial] directory and top
    file in out_dir; ``only_run`` R refuses run directories that
    experiment.json does not record under this config's digest, and removes
    run R's and every one at or above n_runs. Either then writes the record.
    """
    if only_run is not None and not 0 <= only_run < cfg.n_runs:
        raise ValueError(f"only_run: {only_run} not in [0, {cfg.n_runs})")
    out_dir = out_dir or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    dataset = load_experiment_dataset(cfg)
    kept = {k: v for k, v in vars(cfg).items() if k not in ("dataset", "out_dir", "workers", "n_runs")}
    digest = hashlib.sha256(repr((kept, dataset.ids)).encode())
    for array in (dataset.labels, dataset.features):
        digest.update(array)  # in place: a Dataset's arrays are C-contiguous
    path = os.path.join(out_dir, "experiment.json")
    if only_run is not None and _run_dirs(out_dir) and not (os.path.isfile(path) and isinstance(
            old := _read_json(path), dict) and old.get("config") == digest.hexdigest()):
        raise ConfigError(f"{path}: missing or of another config; run without --only-run")

    run_indices = [only_run] if only_run is not None else list(range(cfg.n_runs))
    for run, name in _run_dirs(out_dir, partial=True):  # listed whole before any is removed
        if only_run in (None, run) or run >= cfg.n_runs:
            shutil.rmtree(os.path.join(out_dir, name))
    if only_run is None:  # and the old top files
        for name in {*TOP_FILES, "manifest.json"}.intersection(os.listdir(out_dir)):
            os.remove(os.path.join(out_dir, name))
    write_json(path, {"config": digest.hexdigest(), "cutoffs": list(cfg.cutoffs),
                      "default_cl": cfg.default_cl, "n_runs": cfg.n_runs, "seed": cfg.seed})
    jobs = [(cfg, dataset, r, out_dir) for r in run_indices]
    if cfg.workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: a costly import
        with ProcessPoolExecutor(max_workers=min(cfg.workers, len(jobs))) as pool:
            list(pool.map(run_single, *zip(*jobs)))  # list(): re-raises a worker's exception
    else:
        for job in jobs:
            run_single(*job)
    return reaggregate(out_dir)


def build_manifest(out_dir) -> dict:
    """SHA-256 digest of each file this program writes to out_dir: the top
    files and every file under a run_<digits> directory. Written as
    manifest.json; any other file in out_dir is not listed."""
    paths = list(TOP_FILES)
    for _, rd in _run_dirs(out_dir):
        for root, _dirs, files in os.walk(os.path.join(out_dir, rd)):
            paths += [os.path.relpath(os.path.join(root, f), out_dir) for f in files]
    entries = []
    for rel in sorted(p.replace(os.sep, "/") for p in paths):
        with open(os.path.join(out_dir, rel), "rb") as fh:
            entries.append({"path": rel, "sha256": hashlib.sha256(fh.read()).hexdigest()})
    manifest = {"files": entries}
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def _run_dirs(out_dir, partial=False) -> list:
    """(run index, name) of every run_<digits> directory in out_dir, with
    ``partial`` every run_<digits>.partial one too, in run index order;
    ValueError names such an entry not a directory or not named run_<r:03d>."""
    match = re.compile(r"run_(\d+)(\.partial)?" if partial else r"run_(\d+)").fullmatch
    runs = sorted((int(m[1]), m[0]) for m in map(match, os.listdir(out_dir)) if m)
    for r, name in runs:
        path = os.path.join(out_dir, name)
        if name.removesuffix(".partial") != f"run_{r:03d}":
            raise ValueError(f"{path}: named as a run, but run {r} is named run_{r:03d}")
        if not os.path.isdir(path):
            raise ValueError(f"{path}: named as a run but not a directory")
    return runs


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ValueError(f"{path}: {exc}") from None


def _read_run_csv(run_dir, name, model=None) -> tuple:
    """The path of run file ``name`` ({} the model) and its columns by name: id
    and partition as text, the rest as floats. A ValueError names the file for
    a header not its RUN_CSVS one, a row of another width or a cell not a number."""
    path, header = os.path.join(run_dir, name.format(model)), RUN_CSVS[name]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(_csv_rows(fh, path))
    if rows[:1] != [header] or any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: not a table of the {len(header)} columns {','.join(header)}")
    try:  # each column of rows is its name, then its cells
        return path, {col: cells if col in ("id", "partition") else np.array(cells, float)
                      for col, *cells in zip(*rows)}
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _evaluate_run(run_dir, model, record, test_ids, first_levels) -> dict:
    """evaluate_model on the factors read from the model's files. A ValueError names
    a file _read_run_csv rejects, a levels file no run writes or unlike the model's
    first_levels, or else the test file, e.g. for ids other than test_ids, each once."""
    test_path, test = _read_run_csv(run_dir, "{}_test.csv", model)
    path, levels = _read_run_csv(run_dir, "{}_levels.csv", model)
    cls, alpha, default_cl = levels["cl"], levels["alpha"], record["default_cl"]
    if not (np.all(alpha >= 0) and np.array_equal(levels["unbounded"], np.isinf(alpha))):
        raise ValueError(f"{path}: alpha must be >= 0, and unbounded 1 exactly where alpha is inf")
    if not (default_cl in cls.tolist() and np.all(np.diff(cls) > 0) and 0 < cls[0] and cls[-1] < 1):
        raise ValueError(f"{path}: cl must rise strictly within (0, 1) and include {default_cl!r}")
    try:
        report = evaluate_model(model, test["y_hat"], test["scale"],
                                dict(zip(cls.tolist(), alpha.tolist())), test["sigma"], test["y"],
                                default_cl, record["cutoffs"])
        ids, n_test = test["id"], len(test_ids)
        if not len(ids) == len(set(ids)) == n_test:
            raise ValueError(f"{len(ids)} rows of {len(set(ids))} ids; split.csv has {n_test} test rows")
        if foreign := set(ids).difference(test_ids):
            raise ValueError(f"id {min(foreign)!r} is not a test row of split.csv")
    except ValueError as exc:
        raise ValueError(f"{test_path}: {exc}") from None
    first, grid = first_levels.setdefault(model, (path, report["curve"]["cl"]))
    if report["curve"]["cl"] != grid:
        raise ValueError(f"{path}: other levels than {first}")
    return report


def reaggregate(out_dir) -> RunArtifacts:
    """Evaluate every model of every run_<digits> directory from its factored
    files and take its failures from failures.json, in index order, then write
    the reports, summary.json, the flat aggregate CSVs and the manifest. It
    raises before writing, naming the file, for one it cannot read and for one
    _evaluate_run rejects against the run's split.csv and the model's first run."""
    record_path, summary_path, curve_path, width_path, retrieval_path = (
        os.path.join(out_dir, name) for name in TOP_FILES)
    record = _read_json(record_path)
    if not (isinstance(record, dict) and "seed" in record and isinstance(record.get("n_runs"), int)
            and isinstance(record.get("cutoffs"), list)
            and all(isinstance(v, float) for v in [record.get("default_cl"), *record["cutoffs"]])):
        raise ValueError(f"{record_path}: not an object with 'seed', an integer 'n_runs', "
                         "a float 'default_cl' and a list of float 'cutoffs'")
    run_dirs = _run_dirs(out_dir)
    reports_by_model, first_levels, written, failures = {}, {}, [], []
    for r, rd in run_dirs:
        run_dir = os.path.join(out_dir, rd)
        path, split = _read_run_csv(run_dir, "split.csv")
        if set(split["partition"]) != {"train", "validation", "test"}:
            raise ValueError(f"{path}: not a split of the rows into train, validation and test")
        test_ids = [i for i, part in zip(split["id"], split["partition"]) if part == "test"]
        for name in sorted(os.listdir(run_dir)):
            path = os.path.join(run_dir, name)
            if name.endswith("_test.csv"):
                model = name.removesuffix("_test.csv")
                report = _evaluate_run(run_dir, model, record, test_ids, first_levels)
                reports_by_model.setdefault(model, []).append(report)
                written.append((os.path.join(run_dir, f"{model}_report.json"), report))
            elif name == "failures.json":
                listed = _read_json(path)
                if not isinstance(listed, list) or not all(
                        isinstance(f, dict) and {"model", "reason"} <= f.keys() for f in listed):
                    raise ValueError(f"{path}: not a list of objects with 'model' and 'reason'")
                failures += [(r, f["model"], f["reason"]) for f in listed]

    aggregate = {
        "seed": record["seed"], "n_runs": record["n_runs"],
        "missing_runs": sorted(set(range(record["n_runs"])) - {r for r, _ in run_dirs}),
        "models": {key: aggregate_runs(rs) for key, rs in sorted(reports_by_model.items())},
        "failures": [{"run": r, "model": key, "reason": reason} for r, key, reason in failures],
    }
    for path, report in written:
        write_json(path, report)
    write_json(summary_path, aggregate)

    # Flat aggregate CSVs, one per table and one block per model.
    curve, width, retrieval = [], [], []
    for key, agg in sorted(aggregate["models"].items()):
        cls = sorted(agg["coverage"], key=float)  # the keys of mean_width too
        head = [[key] * len(cls), [float(cl) for cl in cls]]
        curve.append(head + [[agg["coverage"][cl][s] for cl in cls] for s in ("mean", "std")])
        width.append(head + [[agg["mean_width"][cl][s] for cl in cls] for s in ("mean", "std")]
                     + [[agg["fraction_unbounded"][cl]["mean"] for cl in cls]])
        cutoffs = sorted(agg["retrieval"], key=float)
        retrieval.append([[key] * len(cutoffs), [float(c) for c in cutoffs]]
                         + [[agg["retrieval"][c][cat]["mean"] for c in cutoffs]
                            for cat in CATEGORIES])
    write_csv(curve_path, ["model", "cl", "coverage_mean", "coverage_std"], curve)
    write_csv(width_path, ["model", "cl", "mean_width_mean", "mean_width_std",
                           "fraction_unbounded_mean"], width)
    write_csv(retrieval_path, ["model", "cutoff", *CATEGORIES], retrieval)
    return RunArtifacts(out_dir=out_dir, reports=reports_by_model, failures=failures,
                        aggregate=aggregate, manifest=build_manifest(out_dir))
