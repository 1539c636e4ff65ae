import ast
import csv
import dataclasses
import fnmatch
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dropconf.cli import main
from dropconf.config import _KEYS, ConfigError, ExperimentConfig, parse_config, parse_config_text
from dropconf.conformal import ConformalResult, build_calibration, intervals_for
from dropconf.data import Dataset
from dropconf.ensemble import from_passes
from dropconf.evaluate import evaluate_model
from dropconf.forest import ForestConfig
from dropconf.net import NetConfig
from dropconf.runner import (RUN_CSVS, _dump_conformal, _read_run_csv, reaggregate,
                             run_experiment, write_csv)

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
# sha256 of the manifest.json the fixture config writes at seed 7
FIXTURE_DIGEST = "86c7feb440c8a29da850c1367f41af6fd86661489e2ba41b3106fa7ce6046018"
# and of its reports and aggregate files, which were kept when reports came
# to be evaluated from the factored files rather than in memory
FIXTURE_FILE_DIGESTS = {
    "run_000/dnn_p0.25_report.json": "75e0cd169718f99adedc30ab27065ddc768cc227b09a13808ebe226a95b444d4",
    "run_000/rf_report.json": "2f5ee2aaaa3154635ef9c4de9d0e48eac00ab54af89b0945e05ebca39a01f814",
    "run_001/dnn_p0.25_report.json": "5cd31a879f485978b7ff9af924a3b340b3b27f19883b56677878c8cc28d55327",
    "run_001/rf_report.json": "a27dc9926661119f2b44a36e979dc14874ad03872c3a60bccc7be7973af36811",
    "summary.json": "15b3dcabbe106cb21609d1828be0eeaa712fb9fc5241f8689b07b3ae1ee5c33e",
    "calibration_curve.csv": "f1ea35b470ee33269ab5e7ab22db9c5e0f084cdcb8d51269b49c180f920675fe",
    "width_stats.csv": "aaa45fc1a3aca79d94a9dd03309c3297cc2ad2f2a0c8cebe4e81e4c44aeb1fa5",
    "retrieval_counts.csv": "781795dd3e49dab6bbd2275910a9dd486a50b62c313dcf050ea533d47b85155c",
}


# Each bounded key's admissible values, as its rejection message prints the
# interval; a bound changed in the code is an edit to this table.
_INTERVALS = {
    "synthetic.n": "[10, inf)",
    "synthetic.d": "[1, inf)",
    "synthetic.scale": "[0, inf)",
    "n_runs": "[1, inf)",
    "dropout_p": "[0, 1)",
    "n_passes": "[1, inf)",
    "cv_folds": "[2, inf)",
    "cl_grid": "(0, 1)",
    "default_cl": "(0, 1)",
    "cutoffs": "(-inf, inf)",
    "retry_limit": "[0, inf)",
    "workers": "[1, inf)",
    "net.hidden_sizes": "[1, inf)",
    "net.lr0": "[0, inf)",
    "net.decay_factor": "(0, 1)",
    "net.decay_every": "[1, inf)",
    "net.cycle_length": "[1, inf)",
    "net.max_epochs": "[1, inf)",
    "net.patience": "[1, inf)",
    "net.momentum": "[0, 1)",
    "net.batch_fraction": "(0, 1]",
    "net.rmse_gate": "(0, inf]",
    "forest.n_trees": "[1, inf)",
    "forest.min_samples_split": "[2, inf)",
    "forest.min_samples_leaf": "[1, inf)",
}


def _field(target):
    """The dataclass field that config key target (see _KEYS) sets."""
    section, _, name = target.rpartition(".")
    owner = {"": ExperimentConfig, "net": NetConfig, "forest": ForestConfig}[section]
    return next(f for f in dataclasses.fields(owner) if f.name == name)


class TestParseConfig:
    def test_defaults_applied(self):
        cfg = parse_config_text("dataset = some.csv\n")
        assert cfg.n_runs == 20
        assert cfg.dropout_p == (0.1, 0.25, 0.5)
        assert cfg.n_passes == 100
        assert cfg.cv_folds == 10
        assert cfg.default_cl == 0.80
        assert cfg.cutoffs == (5.0, 6.0, 7.0, 8.0, 9.0)
        assert cfg.cl_grid[0] == 0.05 and cfg.cl_grid[-1] == 0.95 and len(cfg.cl_grid) == 19
        assert cfg.forest.n_trees == 100
        assert cfg.net.hidden_sizes == (1000, 1000, 100, 10)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'n_run'"):
            parse_config_text("dataset = x.csv\nn_run = 3\n")

    def test_invalid_dropout_names_key(self):
        with pytest.raises(ConfigError, match="dropout_p"):
            parse_config_text("dataset = x.csv\ndropout_p = 1.5\n")

    def test_dnn_needs_a_dropout_rate(self):
        # an empty dropout_p once ran no dnn model at all, and run exited 0
        with pytest.raises(ConfigError, match="dropout_p"):
            parse_config_text("dataset = x.csv\nmodels = dnn\ndropout_p =\n")
        assert parse_config_text("dataset = x.csv\nmodels = rf\ndropout_p =\n").dropout_p == ()

    def test_needs_data_source(self):
        with pytest.raises(ConfigError, match="dataset"):
            parse_config_text("n_runs = 2\n")

    def test_grid_range_syntax(self):
        cfg = parse_config_text("dataset = x.csv\ncl_grid = 0.1:0.9:0.2\n")
        assert cfg.cl_grid == (0.1, 0.3, 0.5, 0.7, 0.8, 0.9)  # default_cl merged in

    @pytest.mark.parametrize("grid", ["0.1:0.9:0", "0.1:0.9:-0.1", "0.1:0.9:nan"])
    def test_grid_step_must_be_positive(self, grid):
        with pytest.raises(ConfigError, match="cl_grid: step"):
            parse_config_text(f"dataset = x.csv\ncl_grid = {grid}\n")

    def test_grid_start_after_stop_rejected(self):
        with pytest.raises(ConfigError, match="cl_grid: start"):
            parse_config_text("dataset = x.csv\ncl_grid = 0.9:0.1:0.1\n")

    def test_grid_single_point_range(self):
        cfg = parse_config_text("dataset = x.csv\ncl_grid = 0.8:0.8:0.05\n")
        assert cfg.cl_grid == (0.8,)

    @pytest.mark.parametrize("grid", ["0.01:0.99:1e-5", "0.01:0.99:1e-12"])
    def test_grid_too_many_levels_rejected_before_building(self, grid):
        # 98001 and ~1e12 levels; a built list would need megabytes (or hang)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="cl_grid: range"):
                parse_config_text(f"dataset = x.csv\ncl_grid = {grid}\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000

    @pytest.mark.parametrize("grid", ["0.5:0.5:1e-17", "0.125:0.12500000000001:1e-17",
                                      "0.5:0.5:1e-15"])
    def test_grid_step_below_float_spacing_rejected(self, grid):
        # v + step == v near v looped forever; 1e-15 built 1e6 levels in the 1e-9 slack
        with pytest.raises(ConfigError, match="cl_grid: range"):
            parse_config_text(f"dataset = x.csv\ncl_grid = {grid}\n")

    def test_grid_and_cutoffs_sorted_and_deduplicated(self):
        cfg = parse_config_text("dataset = x.csv\ncl_grid = 0.8,0.5,0.8\ncutoffs = 7,5,7\n")
        assert cfg.cl_grid == (0.5, 0.8)
        assert cfg.cutoffs == (5.0, 7.0)

    def test_dropout_rates_sorted_and_deduplicated(self):
        cfg = parse_config_text("dataset = x.csv\ndropout_p = 0.5,0.25,0.5\n")
        assert cfg.dropout_p == (0.25, 0.5)

    def test_dropout_rates_of_one_model_name_rejected(self):
        # both once ran as dnn_p0.1, the second rate's files over the first's
        with pytest.raises(ConfigError, match=r"^dropout_p: rates 0\.1 and 0\.1000001 both name "
                                              r"model dnn_p0\.1$"):
            parse_config_text("dataset = x.csv\ndropout_p = 0.1000001,0.25,0.1\n")

    @pytest.mark.parametrize("cutoff", ["nan", "inf", "-inf"])
    def test_nonfinite_cutoff_rejected(self, cutoff):
        with pytest.raises(ConfigError, match="cutoffs"):
            parse_config_text(f"dataset = x.csv\ncutoffs = 5,{cutoff}\n")

    def test_grid_percent_steps_still_parse(self):
        cfg = parse_config_text("dataset = x.csv\ncl_grid = 0.01:0.99:0.01\n")
        assert len(cfg.cl_grid) == 99
        assert cfg.cl_grid[0] == 0.01 and cfg.cl_grid[-1] == 0.99

    def test_readme_table_documents_every_key(self):
        # val_fraction, test_fraction, net.decay_every and
        # forest.min_samples_leaf were once missing even by their bare names
        with open(os.path.join(FIXTURES, os.pardir, "README.md"), encoding="utf-8") as fh:
            section = fh.read().split("## Config format", 1)[1].split("\n## ", 1)[0]
        rows = {line.split("`")[1]: line for line in section.splitlines() if line.startswith("| `")}
        assert [key for key in sorted(_KEYS) if key not in rows] == []
        # each bounded key's row states the interval its rejection prints
        assert [key for key, iv in _INTERVALS.items() if f"`{iv}`" not in rows[key]] == []
        assert "`<key>: <value> not in <interval>`" in section

    def test_fixture_config_parses(self):
        cfg = parse_config(os.path.join(FIXTURES, "synthetic.cfg"))
        assert cfg.synthetic_n == 240
        assert cfg.models == ("dnn", "rf")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="no such config"):
            parse_config("/nonexistent/path.cfg")

    def test_undecodable_file_is_named(self, tmp_path, capsys):
        # the decode error once reached the CLI without the file's name
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"synthetic.n = 120\nseed = \xff\n")
        with pytest.raises(ConfigError, match="bad.cfg: not a readable UTF-8 file: 'utf-8' codec"):
            parse_config(str(path))
        assert main(["validate-config", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: not a readable UTF-8 file")

    @pytest.mark.parametrize("key", sorted(_KEYS))
    def test_every_key_sets_its_field(self, key):
        target, _conv = _KEYS[key]
        section, _, name = target.rpartition(".")
        default = getattr(_field_owner(parse_config_text("dataset = x.csv\n"), section), name)
        value = _other_value(key, default)
        text = f"dataset = x.csv\n{key} = {_config_text(value)}\n"
        if name in _FRACTIONS:  # the other two take the rest, so the sum stays 1
            text += "".join(f"{f} = {(1 - value) / 2!r}\n" for f in _FRACTIONS if f != name)
        cfg = parse_config_text(text)
        assert value != default
        assert getattr(_field_owner(cfg, section), name) == value

    def test_net_dropout_p_is_not_a_key(self):
        # each network's model job sets it to that network's rate
        with pytest.raises(ConfigError, match="unknown key 'net.dropout_p'"):
            parse_config_text("dataset = x.csv\nnet.dropout_p = 0.3\n")

    def test_bootstrap_no_is_false(self):
        assert parse_config_text("dataset = x.csv\nforest.bootstrap = no\n").forest.bootstrap is False

    @pytest.mark.parametrize("key, raw", [("lr0", "nan"), ("lr0", "inf"), ("lr0", "-1"),
                                          ("rmse_gate", "nan"), ("rmse_gate", "-1"),
                                          ("rmse_gate", "0")])
    def test_nonfinite_lr0_and_nonpositive_rmse_gate_rejected(self, key, raw):
        # either trained every attempt to max_epochs and recorded it as not converged
        with pytest.raises(ConfigError, match=rf"net\.{key}: \S+ not in "):
            parse_config_text(f"dataset = x.csv\nnet.{key} = {raw}\n")

    def test_bounded_keys_are_the_interval_table(self):
        bounded_keys = {key for key, (target, _conv) in _KEYS.items()
                        if "bounds" in _field(target).metadata}
        assert bounded_keys == set(_INTERVALS)

    @pytest.mark.parametrize("key, interval", sorted(_INTERVALS.items()))
    def test_bounded_key_admits_exactly_its_interval(self, key, interval):
        # net.* and forest.* rejections once named no key ("net.*: lr0 must be ...")
        target, conv = _KEYS[key]
        section, _, name = target.rpartition(".")
        default = getattr(_field_owner(parse_config_text("dataset = x.csv\n"), section), name)
        sample = default[0] if isinstance(default, tuple) else default
        integer = conv is int or isinstance(sample, int)  # synthetic.n's default is None
        cases = [] if integer else [(math.nan, False)]  # (value, admitted)
        for end, closed, out in ((interval[1:].split(", ")[0], interval[0] == "[", -1),
                                 (interval[:-1].split(", ")[1], interval[-1] == "]", 1)):
            end = float(end)
            if integer and math.isfinite(end):
                cases += [(int(end), closed), (int(end) + out, False), (int(end) - out, True)]
            elif math.isfinite(end):
                cases += [(end, closed), (math.nextafter(end, out * math.inf), False),
                          (math.nextafter(end, -out * math.inf), True)]
            elif not integer:  # an integer key cannot be written as inf
                cases.append((end, closed))
        for value, admitted in cases:
            text = f"dataset = x.csv\n{key} = {value!r}\n"
            if admitted:
                parse_config_text(text)
                continue
            with pytest.raises(ConfigError) as info:
                parse_config_text(text)
            assert str(info.value) == f"{key}: {value!r} not in {interval}"

    def test_zero_lr0_and_infinite_rmse_gate_allowed(self):
        cfg = parse_config_text("dataset = x.csv\nnet.lr0 = 0\nnet.rmse_gate = inf\n")
        assert cfg.net.lr0 == 0.0 and cfg.net.rmse_gate == math.inf


_FRACTIONS = ("train_fraction", "val_fraction", "test_fraction")


def _field_owner(cfg, section):
    return getattr(cfg, section) if section else cfg


def _other_value(key, default):
    """A valid value of the field behind ``key`` that is not its default."""
    special = {"dataset": "other.csv", "synthetic.n": 50, "synthetic.noise": "homoscedastic",
               "forest.max_features": 3}
    if key in special:
        return special[key]
    if isinstance(default, bool):
        return not default
    if isinstance(default, tuple):
        return default[1:]  # cl_grid keeps default_cl, which would be merged back in
    if isinstance(default, str):
        return default + "_2"
    return default + 1 if isinstance(default, int) else default / 2


def _config_text(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def tiny_config(**over):
    base = dict(
        synthetic_n=120,
        synthetic_d=3,
        synthetic_noise="homoscedastic",
        synthetic_scale=0.3,
        seed=5,
        n_runs=2,
        models=("rf",),
        n_passes=10,
        cv_folds=3,
        cl_grid=(0.5, 0.8),
        default_cl=0.8,
        retry_limit=1,
    )
    base.update(over)
    if "forest" not in base:
        base["forest"] = ForestConfig(n_trees=5)
    return ExperimentConfig(**base)


def failing_config(**over):
    """tiny_config whose dnn models can never converge: lr0 = 0 leaves the
    network untrained and no RMSE passes a 1e-9 gate. rf still reports."""
    from dropconf.net import NetConfig

    base = dict(models=("dnn", "rf"), dropout_p=(0.25,), retry_limit=1,
                net=NetConfig(hidden_sizes=(4,), lr0=0.0, max_epochs=5, patience=5,
                              rmse_gate=1e-9))
    return tiny_config(**{**base, **over})


class TestRunExperiment:
    def test_rf_only_runs_and_emits(self, tmp_path):
        cfg = tiny_config()
        artifacts = run_experiment(cfg, out_dir=str(tmp_path / "out"))
        assert set(artifacts.reports) == {"rf"}
        assert len(artifacts.reports["rf"]) == 2
        out = tmp_path / "out"
        assert (out / "summary.json").exists()
        assert (out / "manifest.json").exists()
        assert (out / "run_000" / "rf_report.json").exists()
        assert (out / "run_000" / "rf_calibration.csv").exists()
        assert (out / "run_000" / "rf_test.csv").exists()
        assert (out / "run_000" / "rf_levels.csv").exists()
        assert not (out / "run_000" / "rf_intervals.csv").exists()
        assert len(artifacts.manifest["files"]) >= 5
        # no dnn outputs when rf-only
        assert not any("dnn" in f["path"] for f in artifacts.manifest["files"])

    def test_quoted_table_ids_keep_every_row_one_record(self, tmp_path):
        # every other id holds a comma; bare joins once split those rows in two
        rng = np.random.default_rng(0)
        table = tmp_path / "t.csv"
        with open(table, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "y", "f0", "f1"])
            for i in range(60):
                writer.writerow([f"c,{i}" if i % 2 else f"r{i}", *rng.random(3)])
        run_experiment(tiny_config(dataset=str(table), n_runs=1), out_dir=str(tmp_path / "out"))
        for name, width in (("rf_calibration.csv", 5), ("rf_test.csv", 5), ("rf_levels.csv", 4)):
            with open(tmp_path / "out" / "run_000" / name, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert {len(row) for row in rows} == {width}
            assert name == "rf_levels.csv" or any(row[0].startswith("c,") for row in rows)

    def test_dnn_pipeline_and_training_log(self, tmp_path):
        from dropconf.net import NetConfig

        cfg = tiny_config(
            models=("dnn",),
            dropout_p=(0.25,),
            net=NetConfig(hidden_sizes=(6,), max_epochs=15, patience=15, rmse_gate=100.0),
        )
        artifacts = run_experiment(cfg, out_dir=str(tmp_path / "out"))
        assert "dnn_p0.25" in artifacts.reports
        assert (tmp_path / "out" / "run_001" / "dnn_p0.25_training_log.csv").exists()

    def test_repeated_dropout_rate_trains_once(self, tmp_path, monkeypatch):
        from dropconf import runner
        from dropconf.net import NetConfig

        rates = []
        real_train = runner.train

        def counting_train(train_set, val_set, net_cfg, seed):
            rates.append(net_cfg.dropout_p)
            return real_train(train_set, val_set, net_cfg, seed)

        monkeypatch.setattr(runner, "train", counting_train)
        cfg = tiny_config(
            n_runs=1,
            models=("dnn",),
            dropout_p=(0.25, 0.25),
            net=NetConfig(hidden_sizes=(6,), max_epochs=15, patience=15, rmse_gate=100.0),
        )
        artifacts = run_experiment(cfg, out_dir=str(tmp_path / "out"))
        assert rates == [0.25]
        assert list(artifacts.reports) == ["dnn_p0.25"]

    def test_determinism_byte_identical(self, tmp_path):
        cfg = tiny_config()
        a = run_experiment(cfg, out_dir=str(tmp_path / "a"))
        b = run_experiment(cfg, out_dir=str(tmp_path / "b"))
        assert a.manifest == b.manifest

    def test_two_workers_write_the_manifest_of_one(self, tmp_path):
        from dropconf.net import NetConfig

        cfg = tiny_config(models=("dnn", "rf"), dropout_p=(0.25,),
                          net=NetConfig(hidden_sizes=(6,), max_epochs=15, patience=15,
                                        rmse_gate=100.0))
        for workers in (1, 2):
            run_experiment(replace(cfg, workers=workers), out_dir=str(tmp_path / f"w{workers}"))
        one, two = ((tmp_path / f"w{w}" / "manifest.json").read_bytes() for w in (1, 2))
        assert one == two and b"run_001/dnn_p0.25_report.json" in one

    def test_pool_has_no_more_workers_than_runs(self, tmp_path, monkeypatch):
        # under fork the pool starts every worker on the first submit, so
        # workers = 64 once forked 64 processes for 2 runs; this pool forks none
        import concurrent.futures

        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        artifacts = run_experiment(tiny_config(workers=64), out_dir=str(tmp_path / "out"))
        assert sizes == [2]
        assert len(artifacts.reports["rf"]) == 2

    def test_reports_are_the_json_written(self, tmp_path):
        artifacts = run_experiment(tiny_config(), out_dir=str(tmp_path / "out"))
        for run, report in enumerate(artifacts.reports["rf"]):
            with open(tmp_path / "out" / f"run_{run:03d}" / "rf_report.json") as fh:
                assert report == json.load(fh)

    def test_run_isolation(self, tmp_path):
        cfg = tiny_config()
        run_experiment(cfg, out_dir=str(tmp_path / "out"))
        with open(tmp_path / "out" / "run_001" / "rf_report.json") as fh:
            before = json.load(fh)
        # wipe run 1 and recreate only it
        shutil.rmtree(tmp_path / "out" / "run_001")
        run_experiment(cfg, out_dir=str(tmp_path / "out"), only_run=1)
        with open(tmp_path / "out" / "run_001" / "rf_report.json") as fh:
            after = json.load(fh)
        assert before == after

    def test_only_run_failure_leaves_no_earlier_report(self, tmp_path, monkeypatch):
        # the report an earlier invocation wrote for run 1 once stayed in its
        # directory and was aggregated as if this run had produced it
        from dropconf import runner
        from dropconf.net import NetConfig, TrainingLog

        cfg = tiny_config(models=("dnn",), dropout_p=(0.25,),
                          net=NetConfig(hidden_sizes=(6,), max_epochs=15, patience=15,
                                        rmse_gate=100.0))
        out = tmp_path / "out"
        run_experiment(cfg, out_dir=str(out))
        assert (out / "run_001" / "dnn_p0.25_report.json").exists()

        def diverge(*args):
            return None, TrainingLog([], [], [], stop_reason="diverged")

        monkeypatch.setattr(runner, "train", diverge)
        artifacts = run_experiment(cfg, out_dir=str(out), only_run=1)
        assert sorted(os.listdir(out / "run_001")) == [
            "dnn_p0.25_training_log.csv", "failures.json", "split.csv"]
        assert artifacts.aggregate["models"]["dnn_p0.25"]["n_runs"] == 1
        assert artifacts.failures == [(1, "dnn_p0.25", "not converged after 2 attempts")]

    def test_diverged_attempts_fail_and_keep_the_last_log(self, tmp_path, monkeypatch):
        # a diverged attempt once raised: the failed network kept an earlier
        # attempt's training log, or none when every attempt diverged
        from dropconf import runner
        from dropconf.net import NetConfig, train

        logs = []

        def spy(*args):
            model, log = train(*args)
            logs.append(log)
            return model, log

        monkeypatch.setattr(runner, "train", spy)
        cfg = tiny_config(n_runs=1, models=("dnn",), dropout_p=(0.25,), retry_limit=2,
                          net=NetConfig(hidden_sizes=(8,), lr0=0.2, max_epochs=50, patience=50))
        with np.errstate(all="ignore"):
            artifacts = run_experiment(cfg, out_dir=str(tmp_path / "out"))
        assert [log.stop_reason for log in logs] == ["diverged"] * 3
        assert artifacts.failures == [(0, "dnn_p0.25", "not converged after 3 attempts")]
        last = logs[-1]
        assert last != logs[0]  # so the file below tells the attempts apart
        with open(tmp_path / "out" / "run_000" / "dnn_p0.25_training_log.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["epoch", "lr", "train_loss", "val_rmse"]] + [
            [str(e), repr(lr), repr(loss), repr(rmse)] for e, (lr, loss, rmse)
            in enumerate(zip(last.learning_rates, last.train_losses, last.val_rmses))]

    def test_run_dirs_are_read_in_index_order(self, tmp_path):
        # as text, run_1000 sorts between run_100 and run_101
        out = tmp_path / "out"
        run_experiment(tiny_config(n_runs=1), out_dir=str(out))
        with open(out / "run_000" / "rf_test.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        for rmse, name in enumerate(("run_1000", "run_101", "run_099", "run_100")):
            shutil.copytree(out / "run_000", out / name)
            # labels rmse above every prediction give the run that test RMSE
            write_csv(out / name / "rf_test.csv", rows[0], [list(zip(*(
                [r[0], repr(float(r[2]) + rmse), *r[2:]] for r in rows[1:])))])
        shutil.rmtree(out / "run_000")
        reports = reaggregate(str(out)).reports["rf"]
        assert [round(r["rmse"], 9) for r in reports] == [2, 3, 1, 0]

    def test_failure_containment(self, tmp_path):
        # every dnn run fails, rf still reports
        artifacts = run_experiment(failing_config(), out_dir=str(tmp_path / "out"))
        assert len(artifacts.failures) == 2
        assert "rf" in artifacts.reports and len(artifacts.reports["rf"]) == 2
        with open(tmp_path / "out" / "summary.json") as fh:
            summary = json.load(fh)
        assert len(summary["failures"]) == 2

    def test_failures_are_kept_in_their_run_directory(self, tmp_path):
        # the summary once took failures from the old summary.json, so without
        # it reaggregate reported none
        out, cfg = tmp_path / "out", failing_config()
        artifacts = run_experiment(cfg, out_dir=str(out))
        assert artifacts.failures == [(r, "dnn_p0.25", "not converged after 2 attempts")
                                      for r in (0, 1)]
        summary = (out / "summary.json").read_bytes()
        (out / "summary.json").unlink()
        assert reaggregate(str(out)).failures == artifacts.failures
        assert (out / "summary.json").read_bytes() == summary
        assert json.loads((out / "run_001" / "failures.json").read_text()) == [
            {"model": "dnn_p0.25", "reason": "not converged after 2 attempts"}]

    @pytest.mark.parametrize("record", [None, "", "{}\n", '{"n_runs": "2", "seed": 5}',
                                        '{"config": "0", "n_runs": 2, "seed": 5}'])
    def test_report_without_a_record_does_not_guess_the_seed(self, tmp_path, record):
        # only experiment.json records seed, n_runs, default_cl and cutoffs: no
        # guess, nothing written; the last record is one written before the
        # record held default_cl and cutoffs
        out = tmp_path / "out"
        run_experiment(tiny_config(seed=5), out_dir=str(out))
        if record is None:
            (out / "experiment.json").unlink()
        else:
            (out / "experiment.json").write_text(record)
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        with pytest.raises((OSError, ValueError), match="experiment.json"):
            reaggregate(str(out))
        assert main(["report", "--in", str(out)]) == 2
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_failures_of_one_run_keep_run_order(self, tmp_path):
        # as file names dnn_p0.1 sorts before dnn_p0; a run trains p = 0 first
        out = tmp_path / "out"
        run_experiment(failing_config(n_runs=1, dropout_p=(0.0, 0.1)), out_dir=str(out))
        summary = json.loads((out / "summary.json").read_text())
        assert [(f["run"], f["model"]) for f in summary["failures"]] == [
            (0, "dnn_p0"), (0, "dnn_p0.1")]
        assert not list(out.glob("run_000/dnn_*_report.json"))

    def test_two_workers_record_the_failures_of_one(self, tmp_path):
        # the pool's workers hand their failures over on disk
        for workers in (1, 2):
            run_experiment(failing_config(workers=workers), out_dir=str(tmp_path / f"w{workers}"))
        one, two = ((tmp_path / f"w{w}" / "manifest.json").read_bytes() for w in (1, 2))
        assert one == two and b"run_001/failures.json" in one
        summaries = ((tmp_path / f"w{w}" / "summary.json").read_bytes() for w in (1, 2))
        assert len(set(summaries)) == 1

    def test_a_run_forms_no_bounds(self, tmp_path, monkeypatch):
        # run_single once formed every level's (n_test, 2) bounds, which no
        # file holds: only the evaluation of a report reads bounds
        from dropconf import conformal

        def refuse(*args):
            raise AssertionError("a run formed interval bounds")

        monkeypatch.setattr(conformal, "intervals_for", refuse)
        cfg = tiny_config(n_runs=1, models=("dnn", "rf"), dropout_p=(0.25,),
                          net=NetConfig(hidden_sizes=(4,), max_epochs=5, patience=5,
                                        rmse_gate=math.inf))
        artifacts = run_experiment(cfg, out_dir=str(tmp_path / "out"))
        assert sorted(artifacts.reports) == ["dnn_p0.25", "rf"] and artifacts.failures == []
        # the manifest this config wrote when runs formed the bounds, but with
        # split.csv's ids and without the reports' abs_error lists
        assert hashlib.sha256((tmp_path / "out" / "manifest.json").read_bytes()).hexdigest() == (
            "404b104ce34ed706d6aedf6098a131c57a39e59b3dfae3fef87d1edb287bd98c")

    @pytest.mark.parametrize("p, over, failure, names", [
        (None, {}, None, ["rf_calibration.csv", "rf_levels.csv", "rf_test.csv"]),
        (0.25, {"net": NetConfig(hidden_sizes=(4,), max_epochs=5, patience=5, rmse_gate=math.inf)},
         None, [f"dnn_p0.25_{n}.csv" for n in ("calibration", "levels", "test", "training_log")]),
        (0.25, {"retry_limit": 0},
         {"model": "dnn_p0.25", "reason": "not converged after 1 attempts"},
         ["dnn_p0.25_training_log.csv"]),
    ])
    def test_a_model_job_writes_only_its_files_and_returns_its_failure(self, tmp_path, p, over,
                                                                     failure, names):
        # a run is its split plus one job per model (the forest if p is None);
        # the run, not the job, writes failures.json
        from dropconf import runner
        from dropconf.data import random_split

        cfg = failing_config(n_runs=1, **over)
        dataset = runner.load_experiment_dataset(cfg)
        split = random_split(dataset.n_rows, cfg.fractions, 3)
        assert runner._model_job(cfg, dataset, split, 0, str(tmp_path), p) == failure
        assert sorted(os.listdir(tmp_path)) == names

    def test_a_models_files_do_not_depend_on_the_other_models(self, tmp_path):
        # each (run, model) draws only from its own seeds, so a model's files,
        # and the split, are the same bytes whatever else the config lists
        net = NetConfig(hidden_sizes=(4,), max_epochs=5, patience=5, rmse_gate=math.inf)
        configs = [(("dnn", "rf"), (0.25,)), (("dnn", "rf"), (0.1, 0.25)), (("rf",), (0.25,)),
                   (("dnn",), (0.25, 0.5))]
        files = []
        for i, (models, rates) in enumerate(configs):
            out = tmp_path / str(i)
            run_experiment(tiny_config(models=models, dropout_p=rates, net=net), out_dir=str(out))
            files.append({str(f.relative_to(out)): f.read_bytes() for f in out.glob("run_*/*")})
        for prefix, where in (("rf_", [0, 1, 2]), ("dnn_p0.25_", [0, 1, 3]),
                              ("split.csv", [0, 1, 2, 3])):
            mine = [{k: v for k, v in files[i].items() if os.path.basename(k).startswith(prefix)}
                    for i in where]
            assert len(mine[0]) >= 2 and all(m == mine[0] for m in mine), prefix

    def test_reaggregate_matches(self, tmp_path):
        cfg = tiny_config()
        artifacts = run_experiment(cfg, out_dir=str(tmp_path / "out"))
        with open(tmp_path / "out" / "summary.json") as fh:
            before = json.load(fh)
        agg = reaggregate(str(tmp_path / "out"))
        with open(tmp_path / "out" / "summary.json") as fh:
            after = json.load(fh)
        assert before == after

    def test_every_run_csv_is_one_declared_file_with_its_header(self, tmp_path):
        # writers and reader both take headers from RUN_CSVS; a writer with a
        # header of its own would drift from what report reads back
        cfg = parse_config(os.path.join(FIXTURES, "synthetic.cfg"))
        run_experiment(cfg, out_dir=str(tmp_path))
        seen = set()
        for path in sorted(tmp_path.glob("run_*/*.csv")):
            (name,) = [n for n in RUN_CSVS if fnmatch.fnmatchcase(path.name, n.format("*"))]
            assert path.read_text().splitlines()[0] == ",".join(RUN_CSVS[name]), path
            model = path.name.removesuffix(name.removeprefix("{}"))
            read_path, columns = _read_run_csv(str(path.parent), name, model)
            assert read_path == str(path) and list(columns) == RUN_CSVS[name]
            seen.add(name)
        assert seen == set(RUN_CSVS)


class TestCli:
    def test_validate_config_ok(self, capsys):
        rc = main(["validate-config", "--config", os.path.join(FIXTURES, "synthetic.cfg")])
        assert rc == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_config_bad(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("dataset = x.csv\nbogus_key = 1\n")
        rc = main(["validate-config", "--config", str(bad)])
        assert rc != 0
        assert "error:" in capsys.readouterr().err

    def test_fixture_manifest_digest_is_pinned(self, tmp_path, capsys):
        # every change so far kept these bytes; one that alters an emitted byte
        # updates this digest and names the change. run prints it too.
        out = str(tmp_path / "out")
        rc = main(["run", "--config", os.path.join(FIXTURES, "synthetic.cfg"),
                   "--seed", "7", "--out", out])
        assert rc == 0
        with open(os.path.join(out, "manifest.json"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == FIXTURE_DIGEST
        assert capsys.readouterr().out.splitlines()[1] == f"manifest.json sha256 {digest}"
        for name, want in FIXTURE_FILE_DIGESTS.items():
            with open(os.path.join(out, name), "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == want, name

    def test_readme_pins_the_fixture_digest(self):
        # the README's demo digest once stayed behind when this one moved
        with open(os.path.join(FIXTURES, os.pardir, "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        assert re.findall(r"manifest\.json sha256 ([0-9a-f]{64})", readme) == [FIXTURE_DIGEST]

    def test_readme_table_documents_every_run_csv(self):
        # split.csv's columns were once documented nowhere
        with open(os.path.join(FIXTURES, os.pardir, "README.md"), encoding="utf-8") as fh:
            section = fh.read().split("## CLI", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("`") for line in section.splitlines() if line.startswith("| `")]
        assert {row[1].replace("<model>", "{}"): row[3].split(",") for row in rows} == RUN_CSVS
        assert len(rows) == len(RUN_CSVS)

    def test_manifest_lists_only_the_files_run_writes(self, tmp_path, capsys):
        # every file under --out was once hashed, foreign ones included
        argv = ["run", "--config", os.path.join(FIXTURES, "synthetic.cfg"), "--seed", "7"]
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        (out / "run_old").mkdir(parents=True)
        (out / "notes.txt").write_text("mine\n")
        (out / "run_old" / "f.txt").write_text("mine\n")
        assert main(argv + ["--out", str(fresh)]) == 0
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"wrote 25 files to {out}\n"
            f"manifest.json sha256 {FIXTURE_DIGEST}\n"
            "  dnn_p0.25: rmse 0.8267, calibration R^2 0.9907\n"
            "  rf: rmse 0.6385, calibration R^2 0.9984\n")
        assert (out / "manifest.json").read_bytes() == (fresh / "manifest.json").read_bytes()
        assert (out / "notes.txt").exists() and (out / "run_old" / "f.txt").exists()

    def test_fixture_factored_files_rebuild_the_interval_tables(self, tmp_path, monkeypatch):
        from dropconf import runner

        # the one-row-per-(instance, level) tables an earlier writer emitted
        # for this fixture, by their sha256
        old_digests = {
            ("run_000", "dnn_p0.25"): "f5d4db2f07e5221cf9f57ea326a89288d33d85bd3750c39e5c57bdd282351f79",
            ("run_000", "rf"): "9c8f07a64c089fec7dc87b23b0c6c2cce160fbc7a9274466bf5273e26a6fcb8d",
            ("run_001", "dnn_p0.25"): "bba0e01c0a3b0a12f25b3c61dc064f17863721491b55be5c0306dac98236d5af",
            ("run_001", "rf"): "c82247827717c3f17b98d3c2045bdd5bb32fa8f819a70bf06732889ada735b7b",
        }
        oracle_dir = tmp_path / "oracle"
        oracle_dir.mkdir()
        dump = runner._dump_conformal

        def dump_and_oracle(prefix, result, test, run_dir):
            dump(prefix, result, test, run_dir)
            run = os.path.basename(run_dir).removesuffix(".partial")
            _interval_table(oracle_dir / f"{run}_{prefix}.csv", result, test.ids)

        monkeypatch.setattr(runner, "_dump_conformal", dump_and_oracle)
        out = tmp_path / "out"
        assert main(["run", "--config", os.path.join(FIXTURES, "synthetic.cfg"),
                     "--seed", "7", "--out", str(out)]) == 0
        for (run, prefix), digest in old_digests.items():
            rebuilt = _rebuilt_interval_table(out / run, prefix, tmp_path / "rebuilt.csv")
            assert rebuilt == (oracle_dir / f"{run}_{prefix}.csv").read_bytes()
            assert hashlib.sha256(rebuilt).hexdigest() == digest

    def test_in_memory_evaluation_equals_the_written_report(self, tmp_path, monkeypatch):
        # acceptance criteria 01 and 02 evaluate a pipeline's factors in
        # memory; the reports are evaluated from the files those factors wrote
        from dropconf import runner

        cfg = parse_config(os.path.join(FIXTURES, "synthetic.cfg"))
        expected, dump = {}, runner._dump_conformal

        def dump_and_evaluate(prefix, result, test, run_dir):
            dump(prefix, result, test, run_dir)
            pred, run = result.test_prediction, os.path.basename(run_dir).removesuffix(".partial")
            expected[f"{run}/{prefix}_report.json"] = evaluate_model(
                prefix, pred.means, result.scale, result.alpha, pred.stds, test.labels,
                cfg.default_cl, cfg.cutoffs)

        monkeypatch.setattr(runner, "_dump_conformal", dump_and_evaluate)
        out = tmp_path / "out"
        run_experiment(cfg, out_dir=str(out))
        assert sorted(expected) == sorted(n for n in FIXTURE_FILE_DIGESTS if "/" in n)
        for name, report in expected.items():
            text = json.dumps(report, sort_keys=True, indent=1, allow_nan=False) + "\n"
            assert (out / name).read_text() == text, name
            assert hashlib.sha256(text.encode()).hexdigest() == FIXTURE_FILE_DIGESTS[name]

    def test_run_and_report(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "synthetic.n = 120\nsynthetic.d = 3\nseed = 3\nn_runs = 1\n"
            "models = rf\nforest.n_trees = 5\ncv_folds = 3\n"
            "cl_grid = 0.5,0.8\nn_passes = 10\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 0
        names = ("summary.json", "calibration_curve.csv", "width_stats.csv",
                 "retrieval_counts.csv", "manifest.json")
        written = {name: (out / name).read_bytes() for name in names}
        assert main(["report", "--in", str(out)]) == 0
        assert {name: (out / name).read_bytes() for name in names} == written

    def test_run_prints_na_for_an_undefined_r_squared(self, tmp_path, capsys):
        # one level gives one calibration point, so R^2 is undefined
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("synthetic.n = 120\nn_runs = 1\nmodels = rf\nforest.n_trees = 5\n"
                            "cv_folds = 3\ncl_grid = 0.8\n")
        assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("  rf: rmse ") and last.endswith(", calibration R^2 n/a")

    @pytest.mark.parametrize("name, text, message", [
        ("rf_test.csv", "id,y_hat,sigma,scale\nt0,1.0,0.5,1.6\n",
         "rf_test.csv: not a table of the 5 columns id,y,y_hat,sigma,scale"),
        ("rf_test.csv", "id,y,y_hat,sigma,scale\nt0,1.0,x,0.5,1.6\n",
         "rf_test.csv: could not convert string to float: 'x'"),
        ("rf_test.csv", "id,y,y_hat,sigma,scale\nt0,1.0,2.0\n",
         "rf_test.csv: not a table of the 5 columns id,y,y_hat,sigma,scale"),
        ("rf_test.csv", "id,y,y_hat,sigma,scale\n\xff", "rf_test.csv: not a readable UTF-8 CSV"),
        # a report of these once stopped part way through its JSON, naming no
        # file, or was written with an infinite scale
        ("rf_test.csv", "id,y,y_hat,sigma,scale\nt0,1.0,nan,0.5,1.6\n",
         "rf_test.csv: y_hat must be finite"),
        ("rf_test.csv", "id,y,y_hat,sigma,scale\nt0,1.0,2.0,nan,1.6\n",
         "rf_test.csv: sigma must be finite"),
        ("rf_test.csv", "id,y,y_hat,sigma,scale\nt0,1.0,2.0,0.5,inf\n",
         "rf_test.csv: scale must be finite"),
        ("rf_levels.csv", "cl,alpha\n0.8,1.0\n",
         "rf_levels.csv: not a table of the 4 columns cl,k,alpha,unbounded"),
        ("rf_levels.csv", "cl,k,alpha,unbounded\n0.8,3,one,0\n",
         "rf_levels.csv: could not convert string to float: 'one'"),
        ("failures.json", '{"a": 1}', "failures.json: not a list of objects with 'model' and"),
        ("failures.json", '[{"model": "rf"}]', "failures.json: not a list of objects with"),
        ("experiment.json", "\xff", "experiment.json: 'utf-8' codec can't decode"),
    ])
    def test_report_names_a_run_file_it_cannot_read(self, tmp_path, capsys, name, text, message):
        # these once died with a traceback, or with an error that named no file
        out = tmp_path / "out"
        run_experiment(tiny_config(n_runs=1), out_dir=str(out))
        path = out / ("run_000" if name != "experiment.json" else "") / name
        path.write_bytes(text.encode("latin-1"))
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert main(["report", "--in", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("edit, error", [
        (lambda rows: rows[:1] + rows[2:], ValueError),  # without level 0.5
        (lambda rows: [rows[0], "0.55" + rows[1][len("0.5"):], *rows[2:]], ValueError),
    ])
    def test_report_names_the_report_that_disagrees_with_the_first(self, tmp_path, capsys,
                                                                   edit, error):
        # run 1's levels evaluate on their own, but not beside run 0's; the
        # error once named no file
        out = tmp_path / "out"
        run_experiment(tiny_config(n_runs=2), out_dir=str(out))
        path = out / "run_001" / "rf_levels.csv"
        rows = path.read_text().splitlines(keepends=True)
        assert rows[1].startswith("0.5,")
        path.write_text("".join(edit(rows)))
        (out / "run_000" / "rf_report.json").unlink()  # and not written again
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        message = f"{path}: other levels than {out / 'run_000' / 'rf_levels.csv'}"
        with pytest.raises(error, match=re.escape(message)):
            reaggregate(str(out))
        assert main(["report", "--in", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("column, value", [(2, "nan"), (2, "-2.0"), (3, "1"), (2, "inf")])
    def test_report_rejects_a_levels_row_no_run_writes(self, tmp_path, capsys, column, value):
        # report once exited 0 on each, rewriting the reports with coverage 0
        # or negative widths at level 0.5
        out = tmp_path / "out"
        run_experiment(tiny_config(n_runs=1), out_dir=str(out))
        path = out / "run_000" / "rf_levels.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()]
        assert rows[1][0] == "0.5" and float(rows[1][2]) >= 0 and rows[1][3] == "0"
        rows[1][column] = value
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert main(["report", "--in", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: alpha must be >= 0, and unbounded 1 exactly where alpha is inf\n")
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("edit", [
        lambda rows: [rows[0], rows[1], ["0.5", rows[1][1], "99.0", "0"], *rows[2:]],  # 0.5 twice
        lambda rows: [*rows, ["1.5", rows[-1][1], "5.0", "0"]],
        lambda rows: [rows[0], *rows[:0:-1]],  # out of order
        lambda rows: rows[:2],  # without default_cl 0.8
        lambda rows: rows[:1],
    ], ids=["repeated", "above_one", "descending", "no_default_cl", "header_only"])
    def test_report_rejects_levels_no_run_writes(self, tmp_path, capsys, edit):
        # report once exited 0 on the first three, taking the last row of a
        # repeated level, and named the test file for the header alone
        out = tmp_path / "out"
        run_experiment(tiny_config(n_runs=1), out_dir=str(out))
        path = out / "run_000" / "rf_levels.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()]
        assert [row[0] for row in rows] == ["cl", "0.5", "0.8"]
        path.write_text("".join(",".join(row) + "\n" for row in edit(rows)))
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert main(["report", "--in", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: cl must rise strictly within (0, 1) and include 0.8\n")
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("edit, counts", [
        (lambda rows: rows + rows[-1:] * 30, "48 rows of 18 ids"),
        (lambda rows: [rows[0], rows[1], rows[1], *rows[3:]], "18 rows of 17 ids"),  # one id twice
    ], ids=["appended_rows", "repeated_id"])
    def test_report_rejects_test_rows_no_run_writes(self, tmp_path, capsys, edit, counts):
        # report once exited 0 on both; the first rewrote rf's rmse from 0.6441
        # to 0.4080
        out = tmp_path / "out"
        run_experiment(tiny_config(n_runs=1), out_dir=str(out))
        path = out / "run_000" / "rf_test.csv"
        rows = path.read_text().splitlines(keepends=True)
        assert len(rows) == 19
        path.write_text("".join(edit(rows)))
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert main(["report", "--in", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: {counts}; split.csv has 18 test rows\n")
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("foreign, y", [("s0", "40.0"), (None, None)],
                             ids=["s0", "validation_id"])
    def test_report_rejects_test_ids_no_split_tests(self, tmp_path, capsys, foreign, y):
        # report once exited 0 on both, as the count of distinct ids held; the
        # first, with y 40.0, rewrote rf's rmse from 0.6441 to 9.4620
        out = tmp_path / "out"
        run_experiment(tiny_config(n_runs=1), out_dir=str(out))
        path = out / "run_000" / "rf_test.csv"
        split = [line.split(",") for line in (out / "run_000" / "split.csv").read_text().split()]
        # None: a validation row's id, a real id of no test row
        foreign = foreign or next(i for i, part in split if part == "validation")
        rows = [line.split(",") for line in path.read_text().splitlines()]
        assert len(rows) == 19 and foreign not in {row[0] for row in rows}
        rows[1][:2] = [foreign, y or rows[1][1]]
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert main(["report", "--in", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: id {foreign!r} is not a test row of split.csv\n")
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_report_names_a_missing_split(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_experiment(tiny_config(n_runs=1), out_dir=str(out))
        path = out / "run_000" / "split.csv"
        path.unlink()
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert main(["report", "--in", str(out)]) == 2
        assert str(path) in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("edit, message", [
        (lambda text: "x\n" + text.split("\n", 1)[1], "not a table of the 2 columns id,partition"),
        (lambda text: text.replace(",train\n", ",zzz\n") + "junk\n",
         "not a table of the 2 columns id,partition"),
        (lambda text: text.split("\n", 1)[0] + "\n",
         "not a split of the rows into train, validation and test"),
        (lambda text: text.replace(",train\n", ",train,x\n", 1),
         "not a table of the 2 columns id,partition"),
        (lambda text: text.replace(",train\n", ",zzz\n"),
         "not a split of the rows into train, validation and test"),
    ], ids=["header_x", "zzz_and_junk", "header_only", "three_cells", "zzz"])
    def test_report_rejects_a_split_no_run_writes(self, tmp_path, capsys, edit, message):
        # report once exited 0 on each but header_only, for which it named
        # rf_test.csv ("split.csv has 0 test rows")
        out = tmp_path / "out"
        run_experiment(tiny_config(n_runs=1), out_dir=str(out))
        path = out / "run_000" / "split.csv"
        text = path.read_text()
        assert edit(text) != text
        path.write_text(edit(text))
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert main(["report", "--in", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_report_rewrites_a_deleted_or_corrupted_report(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(tiny_config(n_runs=2), out_dir=str(out))
        written = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        (out / "run_000" / "rf_report.json").unlink()
        (out / "run_001" / "rf_report.json").write_text('{"model": "rf", "rmse": 0.0}\n')
        assert main(["report", "--in", str(out)]) == 0
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == written

    def test_a_level_with_no_bounded_interval_writes_strict_json(self, tmp_path):
        # level 0.99 needs more calibration scores than the ~51 out-of-fold
        # rows of 60 give, so no interval is bounded; its width statistics
        # were once NaN, which strict JSON rejects
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("synthetic.n = 60\nn_runs = 2\nmodels = rf\nforest.n_trees = 3\n"
                            "cv_folds = 2\ncl_grid = 0.5,0.99\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        docs = {p.relative_to(out).as_posix(): json.loads(p.read_text(), parse_constant=reject)
                for p in out.rglob("*.json")}
        stats = docs["run_000/rf_report.json"]["width_stats"]["0.99"]
        assert stats == {"mean": None, "median": None, "q1": None, "q3": None, "min": None,
                         "max": None, "fraction_unbounded": 1.0, "n_finite": 0}
        agg = docs["summary.json"]["models"]["rf"]
        assert agg["mean_width"]["0.99"] == {"mean": None, "std": None, "n": 0}
        assert agg["mean_width"]["0.5"]["n"] == 2

    def test_a_level_no_run_bounded_is_an_empty_cell(self, tmp_path):
        # every run leaves level 0.99 unbounded (see the test above); its
        # width_stats.csv cells were once the text None
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("synthetic.n = 60\nmodels = rf\nforest.n_trees = 3\ncv_folds = 2\n"
                            "cl_grid = 0.5,0.99\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 0
        text = (out / "width_stats.csv").read_text()
        assert text.splitlines()[-1] == "rf,0.99,,,1.0" and "None" not in text
        summary = json.loads((out / "summary.json").read_text())
        assert summary["models"]["rf"]["mean_width"]["0.99"] == {"mean": None, "std": None,
                                                                 "n": 0}

    def test_report_keeps_the_bytes_of_a_directory_with_failures(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(failing_config(), out_dir=str(out))
        names = ("manifest.json", "summary.json")
        written = {name: (out / name).read_bytes() for name in names}
        assert b"run_000/failures.json" in written["manifest.json"]
        assert main(["report", "--in", str(out)]) == 0
        assert {name: (out / name).read_bytes() for name in names} == written

    def test_only_run_under_fewer_runs_writes_a_fresh_directory(self, tmp_path):
        # 3 runs and then --only-run 0 at n_runs 2: run_002 once stayed, and
        # the summary of n_runs 2 aggregated rf over 3 runs
        cfg_file = tmp_path / "exp.cfg"
        text = ("synthetic.n = 120\nsynthetic.d = 3\nseed = 3\n"
                "models = dnn,rf\ndropout_p = 0.25\nforest.n_trees = 5\ncv_folds = 3\n"
                "cl_grid = 0.5,0.8\nn_passes = 10\nretry_limit = 0\n"
                "net.hidden_sizes = 4\nnet.lr0 = 0\nnet.max_epochs = 3\nnet.rmse_gate = 1e-9\n")
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        cfg_file.write_text(text + "n_runs = 3\n")
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 0
        cfg_file.write_text(text + "n_runs = 2\n")
        assert main(["run", "--config", str(cfg_file), "--out", str(out), "--only-run", "0"]) == 0
        assert main(["run", "--config", str(cfg_file), "--out", str(fresh)]) == 0
        assert sorted(os.listdir(out)) == sorted(os.listdir(fresh))
        assert (out / "manifest.json").read_bytes() == (fresh / "manifest.json").read_bytes()
        assert json.loads((out / "summary.json").read_text())["models"]["rf"]["n_runs"] == 2

    def test_fewer_runs_into_one_out_write_a_fresh_directory(self, tmp_path):
        # 3 runs and then 1 run into one --out: the manifest once still listed
        # run_001 and run_002, and report then aggregated all 3
        cfg_file = tmp_path / "exp.cfg"
        text = ("synthetic.n = 120\nsynthetic.d = 3\nseed = 3\nmodels = rf\n"
                "forest.n_trees = 5\ncv_folds = 3\ncl_grid = 0.5,0.8\n")
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        for n_runs, where in ((3, out), (1, out), (1, fresh)):
            cfg_file.write_text(text + f"n_runs = {n_runs}\n")
            assert main(["run", "--config", str(cfg_file), "--out", str(where)]) == 0
        assert (out / "manifest.json").read_bytes() == (fresh / "manifest.json").read_bytes()
        assert json.loads((out / "summary.json").read_text())["models"]["rf"]["n_runs"] == 1
        assert main(["report", "--in", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["models"]["rf"]["n_runs"] == 1

    @pytest.mark.parametrize("lines, key", [
        ("synthetic.n = 5\nsynthetic.noise = bogus\n", "synthetic.n: 5 not in [10, inf)"),
        ("synthetic.n = 100\ntrain_fraction = 0.8\nval_fraction = 0.2\n"
         "test_fraction = 0.2\n", "train_fraction"),
        ("synthetic.n = 100\ntrain_fraction = nan\n", "train_fraction"),
        ("synthetic.n = 100\nsynthetic.scale = inf\n", "synthetic.scale: inf not in [0, inf)"),
        ("synthetic.n = 100\nsynthetic.noise = bogus\n", "synthetic.noise: unknown noise model 'bogus'"),
        ("synthetic.n = 10\ntrain_fraction = 0.98\nval_fraction = 0.01\n"
         "test_fraction = 0.01\n", "synthetic.n"),
        ("synthetic.n = 20\ncv_folds = 30\n", "cv_folds"),
    ])
    def test_validate_config_rejects_what_run_rejects(self, tmp_path, capsys, lines, key):
        bad = tmp_path / "bad.cfg"
        bad.write_text(lines)
        assert main(["validate-config", "--config", str(bad)]) == 2
        assert f"error: {key}" in capsys.readouterr().err
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("table_rows, lines, key", [
        (None, "", "dataset: no such file"),
        (5, "models = dnn\ntrain_fraction = 0.9\nval_fraction = 0.05\ntest_fraction = 0.05\n",
         "train_fraction, val_fraction, test_fraction"),
        (20, "models = rf\ncv_folds = 18\n", "cv_folds"),
    ])
    def test_validate_config_reads_the_table(self, tmp_path, monkeypatch, capsys, table_rows, lines, key):
        # the dataset path is relative to the working directory, as in run
        monkeypatch.chdir(tmp_path)
        if table_rows is not None:
            rows = [f"r{i},{i * 0.5},{i % 3}.0" for i in range(table_rows)]
            (tmp_path / "t.csv").write_text("\n".join(["id,y,f0"] + rows) + "\n")
        cfg = tmp_path / "t.cfg"
        cfg.write_text("dataset = t.csv\n" + lines)
        assert main(["validate-config", "--config", str(cfg)]) == 2
        assert f"error: {key}" in capsys.readouterr().err
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_validate_config_accepts_a_table_run_accepts(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rows = [f"r{i},{i * 0.5},{i % 3}.0" for i in range(20)]
        (tmp_path / "t.csv").write_text("\n".join(["id,y,f0"] + rows) + "\n")
        (tmp_path / "t.cfg").write_text("dataset = t.csv\nmodels = rf\ncv_folds = 17\n")
        assert main(["validate-config", "--config", "t.cfg"]) == 0
        assert "config ok" in capsys.readouterr().out

    @pytest.mark.parametrize("table, message", [
        ("id,y,f0\nr0,0.5,1.0\nr1,0.5\n", "t.csv: row 2 has 2 cells, expected 3"),
        (None, "Is a directory"),
    ])
    def test_run_names_dataset_for_a_table_it_cannot_read(self, tmp_path, monkeypatch, capsys,
                                                          table, message):
        # both commands name the key of a table they cannot read
        monkeypatch.chdir(tmp_path)
        if table is None:
            (tmp_path / "t.csv").mkdir()
        else:
            (tmp_path / "t.csv").write_text(table)
        (tmp_path / "t.cfg").write_text("dataset = t.csv\n")
        for command in (["validate-config"], ["run", "--out", "out"]):
            assert main([*command, "--config", "t.cfg"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: dataset: ") and message in err
        assert not (tmp_path / "out" / "run_000").exists()

    def test_run_checks_the_table_rows_before_the_first_run(self, tmp_path, monkeypatch, capsys):
        from dropconf import runner

        def no_train(*args):
            raise AssertionError("train called before the row checks")

        monkeypatch.setattr(runner, "train", no_train)
        monkeypatch.chdir(tmp_path)
        rows = [f"r{i},{i * 0.5},{i % 3}.0" for i in range(12)]
        (tmp_path / "t.csv").write_text("\n".join(["id,y,f0"] + rows) + "\n")
        (tmp_path / "t.cfg").write_text("dataset = t.csv\ncv_folds = 11\n")
        assert main(["run", "--config", "t.cfg", "--out", "out"]) == 2
        assert "error: cv_folds" in capsys.readouterr().err
        assert not (tmp_path / "out" / "run_000").exists()

    @pytest.mark.parametrize("name", ["run_005", "run_001.partial"])
    def test_a_file_named_as_a_run_stops_run_before_any_change(self, tmp_path, capsys, name):
        # a regular file run_005 once made the clean-up raise NotADirectoryError
        # after it had removed run_000, and --only-run 0 passed over a file
        # run_001.partial and wrote run_000 again; report skips a .partial name
        cfg_file, out = tmp_path / "rf.cfg", tmp_path / "out"
        cfg_file.write_text("synthetic.n = 120\nsynthetic.d = 3\nseed = 3\nmodels = rf\nn_runs = 2\n"
                            "forest.n_trees = 5\ncv_folds = 3\ncl_grid = 0.5,0.8\n")
        argv = ["run", "--config", str(cfg_file), "--out", str(out)]
        assert main(argv) == 0
        (out / name).write_text("not a run\n")
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        for extra in ([], ["--only-run", "0"]):
            capsys.readouterr()
            assert main(argv + extra) == 2
            assert capsys.readouterr().err == f"error: {out / name}: named as a run but not a directory\n"
            assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        assert main(["report", "--in", str(out)]) == (0 if name.endswith(".partial") else 2)

    def test_a_run_name_of_other_digits_stops_run_and_report(self, tmp_path, capsys):
        # a copy of run_001 named run_0001 was once read as a third run of two
        cfg_file, out = tmp_path / "rf.cfg", tmp_path / "out"
        cfg_file.write_text("synthetic.n = 120\nsynthetic.d = 3\nseed = 3\nmodels = rf\nn_runs = 2\n"
                            "forest.n_trees = 5\ncv_folds = 3\ncl_grid = 0.5,0.8\n")
        argv = ["run", "--config", str(cfg_file), "--out", str(out)]
        assert main(argv) == 0
        shutil.copytree(out / "run_001", out / "run_0001")
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        for command in (argv, argv + ["--only-run", "0"], ["report", "--in", str(out)]):
            capsys.readouterr()
            assert main(command) == 2
            assert capsys.readouterr().err == (
                f"error: {out / 'run_0001'}: named as a run, but run 1 is named run_001\n")
            assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_only_run_keeps_summary_of_all_runs(self, tmp_path):
        # the failing dnn model also checks that the other run's failure stays
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "synthetic.n = 120\nsynthetic.d = 3\nseed = 3\nn_runs = 2\n"
            "models = dnn,rf\ndropout_p = 0.25\nforest.n_trees = 5\ncv_folds = 3\n"
            "cl_grid = 0.5,0.8\nn_passes = 10\nretry_limit = 0\n"
            "net.hidden_sizes = 4\nnet.lr0 = 0\nnet.max_epochs = 3\nnet.rmse_gate = 1e-9\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 0
        full = {name: (out / name).read_bytes() for name in ("summary.json", "manifest.json")}
        assert len(json.loads(full["summary.json"])["failures"]) == 2
        assert main(["run", "--config", str(cfg_file), "--out", str(out), "--only-run", "1"]) == 0
        assert {name: (out / name).read_bytes() for name in full} == full

    def test_an_interrupted_invocation_leaves_none_of_the_one_before(self, tmp_path, monkeypatch,
                                                                    capsys):
        # seed 8's run_000 once sat next to seed 7's summary, and report wrote
        # "seed": 7 with an rf aggregate over 1 run and no failure
        from dropconf import runner

        cfg_file, out = tmp_path / "rf.cfg", tmp_path / "out"
        with open(os.path.join(FIXTURES, "synthetic.cfg"), encoding="utf-8") as fh:
            cfg_file.write_text(fh.read() + "models = rf\n")
        argv = ["run", "--config", str(cfg_file), "--out", str(out)]
        assert main(argv) == 0
        run_single = runner.run_single

        def stop_in_run_1(cfg, dataset, run_index, out_dir):
            if run_index == 1:
                raise RuntimeError("stopped")
            run_single(cfg, dataset, run_index, out_dir)

        monkeypatch.setattr(runner, "run_single", stop_in_run_1)
        with pytest.raises(RuntimeError, match="stopped"):
            main(argv + ["--seed", "8"])
        assert sorted(os.listdir(out)) == ["experiment.json", "run_000"]
        assert json.loads((out / "experiment.json").read_text())["seed"] == 8
        assert main(["report", "--in", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["seed"], summary["n_runs"], summary["missing_runs"]) == (8, 2, [1])
        assert summary["models"]["rf"]["n_runs"] == 1 and summary["failures"] == []

    def test_a_run_stopped_between_its_models_is_missing(self, tmp_path, monkeypatch):
        # run_001 once kept the network's report alone, and report counted it
        from dropconf import runner

        rf_ccp, calls = runner.rf_ccp, []

        def stop_in_run_1(*args):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("stopped")
            return rf_ccp(*args)

        monkeypatch.setattr(runner, "rf_ccp", stop_in_run_1)
        out = tmp_path / "out"
        cfg = tiny_config(models=("dnn", "rf"), dropout_p=(0.25,),
                          net=NetConfig(hidden_sizes=(6,), max_epochs=15, patience=15,
                                        rmse_gate=100.0))
        with pytest.raises(RuntimeError, match="stopped"):
            run_experiment(cfg, out_dir=str(out))
        assert (out / "run_001.partial" / "dnn_p0.25_test.csv").exists()
        assert not (out / "run_001").exists()
        assert main(["report", "--in", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["missing_runs"] == [1]
        assert {key: agg["n_runs"] for key, agg in summary["models"].items()} == {
            "dnn_p0.25": 1, "rf": 1}
        assert "run_001.partial" not in (out / "manifest.json").read_text()

    @pytest.mark.parametrize("change", ["seed", "net.lr0", "table", "no record"])
    def test_only_run_refuses_runs_of_another_config(self, tmp_path, monkeypatch, capsys, change):
        # --only-run once wrote a run of one config next to runs of another
        monkeypatch.chdir(tmp_path)
        rows = [f"r{i},{i * 0.25},{i % 7}.0,{i % 3}.0" for i in range(60)]
        (tmp_path / "t.csv").write_text("\n".join(["id,y,f0,f1"] + rows) + "\n")
        text = ("dataset = t.csv\nseed = 3\nn_runs = 2\nmodels = rf\nforest.n_trees = 5\n"
                "cv_folds = 3\ncl_grid = 0.5,0.8\n")
        (tmp_path / "t.cfg").write_text(text)
        argv = ["run", "--config", "t.cfg", "--out", "out"]
        assert main(argv) == 0
        if change == "net.lr0":
            (tmp_path / "t.cfg").write_text(text + "net.lr0 = 0.01\n")
        elif change == "table":
            (tmp_path / "t.csv").write_text("\n".join(["id,y,f0,f1"] + rows[:-1]
                                                      + ["r59,0.5,3.0,2.0"]) + "\n")
        elif change == "no record":  # as a directory written before the record existed
            (tmp_path / "out" / "experiment.json").unlink()
        before = {p: p.read_bytes() for p in (tmp_path / "out").rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(argv + ["--only-run", "1"] + (["--seed", "4"] if change == "seed" else [])) == 2
        assert capsys.readouterr().err.startswith(f"error: {os.path.join('out', 'experiment.json')}: ")
        assert {p: p.read_bytes() for p in (tmp_path / "out").rglob("*") if p.is_file()} == before

    def test_the_same_table_at_another_path_keeps_the_record(self, tmp_path, monkeypatch):
        # the record hashes the table's content, not its path
        monkeypatch.chdir(tmp_path)
        rows = [f"r{i},{i * 0.25},{i % 7}.0" for i in range(60)]
        for where in ("a", "b"):
            os.mkdir(where)
            (tmp_path / where / "t.csv").write_text("\n".join(["id,y,f0"] + rows) + "\n")
            (tmp_path / f"{where}.cfg").write_text(
                f"dataset = {where}/t.csv\nn_runs = 2\nmodels = rf\nforest.n_trees = 5\n"
                "cv_folds = 3\ncl_grid = 0.5,0.8\n")
            assert main(["run", "--config", f"{where}.cfg", "--out", f"out_{where}"]) == 0
        for name in ("experiment.json", "manifest.json"):
            assert (tmp_path / "out_a" / name).read_bytes() == (tmp_path / "out_b" / name).read_bytes()

    @pytest.mark.parametrize("only_run", ["7", "-1"])
    def test_only_run_outside_the_runs_rejected(self, tmp_path, capsys, only_run):
        # 7 wrote run_007 and counted 3 runs in a summary of n_runs 2; -1 wrote run_-01
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("synthetic.n = 120\nn_runs = 2\nmodels = rf\ncv_folds = 3\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_file), "--out", str(out),
                     "--only-run", only_run]) == 2
        assert f"only_run: {only_run} not in [0, 2)" in capsys.readouterr().err
        assert not out.exists()

    def test_run_missing_config(self, capsys):
        rc = main(["run", "--config", "/nope.cfg"])
        assert rc == 2


def _old_write_csv(path, header, rows):
    """The row-wise writer write_csv replaced, kept as the byte oracle; None
    is an empty cell, as csv.writer writes it."""
    def _fmt(value):
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(float(value))
        return str(value)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _old_dump_conformal(prefix, result, run_dir):
    """The calibration rows _dump_conformal replaced, on the old writer."""
    detail = result.calibration
    order = np.argsort(detail.alpha, kind="stable")
    _old_write_csv(
        os.path.join(run_dir, f"{prefix}_calibration.csv"),
        ["id", "y", "y_hat", "sigma", "alpha"],
        [
            [detail.ids[i], float(detail.y[i]), float(detail.y_hat[i]),
             float(detail.sigma[i]), float(detail.alpha[i])]
            for i in order
        ],
    )


_INTERVAL_HEADER = ["id", "cl", "y_hat", "half_width", "lower", "upper", "unbounded"]


def _interval_table(path, result, test_ids):
    """The interval table _dump_conformal wrote before the factored files,
    one row per (test instance, level), levels ascending: the byte oracle."""
    y_hat = result.test_prediction.means
    bounds = intervals_for(y_hat, result.scale, result.alpha)
    blocks = []
    for cl in sorted(bounds):
        lower, upper = bounds[cl].T
        half = upper - y_hat
        blocks.append([test_ids, [float(cl)] * len(y_hat), y_hat, half, lower, upper,
                       np.isinf(half).astype(int)])
    write_csv(path, _INTERVAL_HEADER, blocks)


def _rebuilt_interval_table(run_dir, prefix, path):
    """The interval table's bytes rebuilt from <prefix>_test.csv and
    <prefix>_levels.csv alone: lower, upper = y_hat -/+ scale * alpha."""
    def read(name):
        with open(os.path.join(run_dir, f"{prefix}_{name}.csv"), newline="",
                  encoding="utf-8") as fh:
            return list(zip(*list(csv.reader(fh))[1:]))

    ids, _y, y_hat, _sigma, scale = read("test")
    y_hat, scale = np.array(y_hat, dtype=float), np.array(scale, dtype=float)
    blocks = []
    for cl, _k, alpha, _unbounded in zip(*read("levels")):
        lower, upper = y_hat - scale * float(alpha), y_hat + scale * float(alpha)
        half = upper - y_hat
        blocks.append([ids, [float(cl)] * len(ids), y_hat, half, lower, upper,
                       np.isinf(half).astype(int)])
    write_csv(path, _INTERVAL_HEADER, blocks)
    with open(path, "rb") as fh:
        return fh.read()


def _test_set(ids):
    """A Dataset of the given test ids, labels 0, 1, 2, ..."""
    return Dataset(ids=ids, labels=np.arange(len(ids), dtype=float),
                   features=np.zeros((len(ids), 1)))


def _conformal_result(n_cal, n_test, cls, seed=0):
    """A ConformalResult with random predictions; the levels above 0.9
    have infinite alpha, as an undersized calibration set gives."""
    rng = np.random.default_rng(seed)
    cal_pred = from_passes(rng.standard_normal((n_cal, 4)))
    cal = build_calibration(rng.standard_normal(n_cal), cal_pred,
                            ids=[f"c{i}" for i in range(n_cal)])
    test_pred = from_passes(rng.standard_normal((n_test, 4)))
    alpha = {float(cl): math.inf if cl > 0.9 else float(cl) for cl in cls}
    return ConformalResult(calibration=cal, test_prediction=test_pred,
                           scale=np.exp(test_pred.stds), alpha=alpha)


class TestWriteCsv:
    def _both(self, tmp_path, header, blocks):
        rows = [row for block in blocks for row in zip(*block)]
        _old_write_csv(tmp_path / "old.csv", header, rows)
        write_csv(tmp_path / "new.csv", header, blocks)
        return (tmp_path / "old.csv").read_bytes(), (tmp_path / "new.csv").read_bytes()

    def test_float_edge_values_match_row_writer(self, tmp_path):
        values = np.array([-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e22, 0.1 + 0.2, 1.0])
        old, new = self._both(tmp_path, ["a", "b"], [[values, values[::-1].copy()]])
        assert new == old
        assert b"-0.0,1.0\n" in new and b"nan" in new and b"5e-324" in new

    def test_mixed_object_columns_match_row_writer(self, tmp_path):
        blocks = [
            [["x", "y", "z"], [np.float64(0.1), 2.5, None], np.array([3, -4, 5]),
             [1, np.int64(7), True], np.array([0.5, 1e-300, -2.0])],
            [["w"], [None], np.array([0]), [np.float64(-0.0)], np.array([math.inf])],
        ]
        old, new = self._both(tmp_path, list("abcde"), blocks)
        assert new == old
        assert b"x,0.1,3,1,0.5\n" in new and b"z,,5,True,-2.0\n" in new and b"None" not in new

    @pytest.mark.parametrize("blocks", [[], [[[], np.array([])]]])
    def test_zero_rows_write_the_header_only(self, tmp_path, blocks):
        old, new = self._both(tmp_path, ["a", "b"], blocks)
        assert new == old == b"a,b\n"

    @pytest.mark.parametrize("block", [[[1, 2]], [[1, 2], [3]]])
    def test_ragged_block_rejected(self, tmp_path, block):
        with pytest.raises(ValueError, match="equal-length columns"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [block])

    def test_dump_conformal_matches_row_construction(self, tmp_path):
        result = _conformal_result(n_cal=7, n_test=5, cls=(0.5, 0.8, 0.95, 0.2))
        ids = tuple(f"t{i}" for i in range(5))
        (tmp_path / "old").mkdir()
        (tmp_path / "new").mkdir()
        _old_dump_conformal("m", result, tmp_path / "old")
        _dump_conformal("m", result, _test_set(ids), tmp_path / "new")
        name = "m_calibration.csv"
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()
        assert (tmp_path / "new" / "m_levels.csv").read_bytes() == (
            b"cl,k,alpha,unbounded\n0.2,2,0.2,0\n0.5,4,0.5,0\n0.8,7,0.8,0\n0.95,8,inf,1\n")
        _interval_table(tmp_path / "oracle.csv", result, ids)
        oracle = (tmp_path / "oracle.csv").read_bytes()
        assert _rebuilt_interval_table(tmp_path / "new", "m", tmp_path / "rebuilt.csv") == oracle
        assert b",0.95," in oracle and b"-inf,inf,1\n" in oracle

    def test_ids_that_need_quotes_read_back(self, tmp_path):
        # load_table reads ids with csv.reader, so a quoted id may hold any of these
        ids = ("c,0", 'q"1', "n\n2", "r\r3", "plain")
        result = _conformal_result(n_cal=3, n_test=5, cls=(0.5, 0.8))
        write_csv(tmp_path / "t.csv", ["id", "y"], [[ids, np.arange(5.0)]])
        _dump_conformal("m", result, _test_set(ids), tmp_path)
        for name, width in (("t.csv", 2), ("m_test.csv", 5)):
            with open(tmp_path / name, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert all(len(row) == width for row in rows)
            assert tuple(row[0] for row in rows[1:6]) == ids
        assert (tmp_path / "t.csv").read_bytes() == (
            b'id,y\n"c,0",0.0\n"q""1",1.0\n"n\n2",2.0\n"r\r3",3.0\nplain,4.0\n')
        _interval_table(tmp_path / "oracle.csv", result, ids)
        assert _rebuilt_interval_table(tmp_path, "m", tmp_path / "rebuilt.csv") == (
            tmp_path / "oracle.csv").read_bytes()

    def test_bytes_grow_with_rows_plus_levels_not_their_product(self, tmp_path):
        # 750 rows x 99 levels took about 7 MB as one row per (instance, level)
        grid = [round(0.01 * i, 2) for i in range(1, 100)]
        sizes = {}
        for n_test in (75, 750):
            for cls in (grid[::11], grid):
                out = tmp_path / f"{n_test}_{len(cls)}"
                out.mkdir()
                _dump_conformal("m", _conformal_result(n_cal=10, n_test=n_test, cls=cls),
                                _test_set(tuple(f"s{i:06d}" for i in range(n_test))), out)
                sizes[n_test, len(cls)] = {
                    name: os.path.getsize(out / f"m_{name}.csv") for name in ("test", "levels")}
        # the test file does not depend on the levels nor the levels file on the rows
        for n_test in (75, 750):
            assert sizes[n_test, 9]["test"] == sizes[n_test, 99]["test"]
        for n_levels in (9, 99):
            assert sizes[75, n_levels]["levels"] == sizes[750, n_levels]["levels"]
        assert sizes[750, 99]["test"] < 100 * 751 and sizes[750, 99]["levels"] < 100 * 100


def test_import_leaves_the_process_pool_out():
    # run_experiment imports concurrent.futures only for workers > 1
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dropconf; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_numpy_is_the_only_runtime_dependency():
    # read from the source, not sys.modules: site hooks may import more
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "dropconf")
    imported = set()  # (module file, top-level package) of every absolute import
    for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            for node in ast.walk(ast.parse(fh.read(), name)):
                if isinstance(node, ast.Import):
                    imported |= {(name, alias.name.split(".")[0]) for alias in node.names}
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add((name, node.module.split(".")[0]))
    assert sorted((name, top) for name, top in imported
                  if top != "numpy" and top not in sys.stdlib_module_names) == []
