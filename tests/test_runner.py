import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dropconf.cli import main
from dropconf.config import _KEYS, ConfigError, ExperimentConfig, parse_config, parse_config_text
from dropconf.conformal import ConformalResult, build_calibration
from dropconf.ensemble import from_passes
from dropconf.runner import _dump_conformal, reaggregate, run_experiment, write_csv

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


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

    @pytest.mark.parametrize("cutoff", ["nan", "inf", "-inf"])
    def test_nonfinite_cutoff_rejected(self, cutoff):
        with pytest.raises(ConfigError, match="cutoffs"):
            parse_config_text(f"dataset = x.csv\ncutoffs = 5,{cutoff}\n")

    def test_grid_percent_steps_still_parse(self):
        cfg = parse_config_text("dataset = x.csv\ncl_grid = 0.01:0.99:0.01\n")
        assert len(cfg.cl_grid) == 99
        assert cfg.cl_grid[0] == 0.01 and cfg.cl_grid[-1] == 0.99

    def test_fixture_config_parses(self):
        cfg = parse_config(os.path.join(FIXTURES, "synthetic.cfg"))
        assert cfg.synthetic_n == 240
        assert cfg.models == ("dnn", "rf")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="no such config"):
            parse_config("/nonexistent/path.cfg")

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
        # run_single replaces it with each rate of dropout_p
        with pytest.raises(ConfigError, match="unknown key 'net.dropout_p'"):
            parse_config_text("dataset = x.csv\nnet.dropout_p = 0.3\n")

    def test_bootstrap_no_is_false(self):
        assert parse_config_text("dataset = x.csv\nforest.bootstrap = no\n").forest.bootstrap is False

    @pytest.mark.parametrize("key, raw", [("lr0", "nan"), ("lr0", "inf"), ("lr0", "-1"),
                                          ("rmse_gate", "nan"), ("rmse_gate", "-1"),
                                          ("rmse_gate", "0")])
    def test_nonfinite_lr0_and_nonpositive_rmse_gate_rejected(self, key, raw):
        # either trained every attempt to max_epochs and recorded it as not converged
        with pytest.raises(ConfigError, match=rf"net\.\*: {key} must be"):
            parse_config_text(f"dataset = x.csv\nnet.{key} = {raw}\n")

    def test_zero_lr0_and_infinite_rmse_gate_allowed(self):
        cfg = parse_config_text("dataset = x.csv\nnet.lr0 = 0\nnet.rmse_gate = inf\n")
        assert cfg.net.lr0 == 0.0 and cfg.net.rmse_gate == math.inf


_FRACTIONS = ("train_fraction", "val_fraction", "test_fraction")


def _field_owner(cfg, section):
    return getattr(cfg, section) if section else cfg


def _other_value(key, default):
    """A valid value of the field behind ``key`` that is not its default."""
    special = {"dataset": "other.csv", "synthetic.n": 50, "forest.max_features": 3}
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
        from dropconf.forest import ForestConfig

        base["forest"] = ForestConfig(n_trees=5)
    return ExperimentConfig(**base)


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
        assert (out / "run_000" / "rf_intervals.csv").exists()
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
        for name, width in (("rf_calibration.csv", 5), ("rf_intervals.csv", 7)):
            with open(tmp_path / "out" / "run_000" / name, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert {len(row) for row in rows} == {width}
            assert any(row[0].startswith("c,") for row in rows)

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
        from dropconf.net import NetConfig, TrainingDivergedError

        cfg = tiny_config(models=("dnn",), dropout_p=(0.25,),
                          net=NetConfig(hidden_sizes=(6,), max_epochs=15, patience=15,
                                        rmse_gate=100.0))
        out = tmp_path / "out"
        run_experiment(cfg, out_dir=str(out))
        assert (out / "run_001" / "dnn_p0.25_report.json").exists()

        def diverge(*args):
            raise TrainingDivergedError("loss is nan")

        monkeypatch.setattr(runner, "train", diverge)
        artifacts = run_experiment(cfg, out_dir=str(out), only_run=1)
        assert os.listdir(out / "run_001") == ["split.csv"]
        assert artifacts.aggregate["models"]["dnn_p0.25"]["n_runs"] == 1
        assert artifacts.failures == [(1, "dnn_p0.25", "not converged after 2 attempts")]

    def test_run_dirs_are_read_in_index_order(self, tmp_path):
        # as text, run_1000 sorts between run_100 and run_101
        out = tmp_path / "out"
        run_experiment(tiny_config(n_runs=1), out_dir=str(out))
        report = json.loads((out / "run_000" / "rf_report.json").read_text())
        shutil.rmtree(out / "run_000")
        for rmse, name in enumerate(("run_1000", "run_101", "run_099", "run_100")):
            (out / name).mkdir()
            (out / name / "rf_report.json").write_text(json.dumps({**report, "rmse": rmse}))
        reports = reaggregate(None, str(out)).reports["rf"]
        assert [r["rmse"] for r in reports] == [2, 3, 1, 0]

    def test_failure_containment(self, tmp_path):
        from dropconf.net import NetConfig

        # lr0=0 can never pass the gate: every dnn run fails, rf still reports
        cfg = tiny_config(
            models=("dnn", "rf"),
            dropout_p=(0.25,),
            net=NetConfig(hidden_sizes=(4,), lr0=0.0, max_epochs=5, patience=5,
                          rmse_gate=1e-9),
            retry_limit=1,
        )
        artifacts = run_experiment(cfg, out_dir=str(tmp_path / "out"))
        assert len(artifacts.failures) == 2
        assert "rf" in artifacts.reports and len(artifacts.reports["rf"]) == 2
        with open(tmp_path / "out" / "summary.json") as fh:
            summary = json.load(fh)
        assert len(summary["failures"]) == 2

    def test_reaggregate_matches(self, tmp_path):
        cfg = tiny_config()
        artifacts = run_experiment(cfg, out_dir=str(tmp_path / "out"))
        with open(tmp_path / "out" / "summary.json") as fh:
            before = json.load(fh)
        agg = reaggregate(cfg, str(tmp_path / "out"))
        with open(tmp_path / "out" / "summary.json") as fh:
            after = json.load(fh)
        assert before == after


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

    def test_fixture_manifest_digest_is_pinned(self, tmp_path):
        # every change so far kept these bytes; one that alters an emitted byte
        # updates this digest and names the change
        out = str(tmp_path / "out")
        rc = main(["run", "--config", os.path.join(FIXTURES, "synthetic.cfg"),
                   "--seed", "7", "--out", out])
        assert rc == 0
        with open(os.path.join(out, "manifest.json"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == "de8b385ca9f49c93cea9d11a3e9f2f00b03aee3b7c1d763a521869ff7833fcc3"

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
        ("synthetic.n = 5\nsynthetic.noise = bogus\n", "synthetic.*"),
        ("synthetic.n = 100\ntrain_fraction = 0.8\nval_fraction = 0.2\n"
         "test_fraction = 0.2\n", "train_fraction"),
        ("synthetic.n = 100\ntrain_fraction = nan\n", "train_fraction"),
        ("synthetic.n = 100\nsynthetic.scale = inf\n", "synthetic.*"),
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
    """The row-wise writer write_csv replaced, kept as the byte oracle."""
    def _fmt(value):
        if isinstance(value, float):
            return repr(float(value))
        return str(value)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _old_dump_conformal(prefix, result, test_ids, run_dir):
    """The row construction _dump_conformal replaced, on the old writer."""
    detail = result.calibration_detail
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
    y_hat = result.test_prediction.means
    rows = []
    for cl in sorted(result.intervals):
        lower, upper = result.intervals[cl].T
        half = upper - y_hat
        rows += zip(test_ids, [float(cl)] * len(y_hat), y_hat.tolist(), half.tolist(),
                    lower.tolist(), upper.tolist(), np.isinf(half).astype(int).tolist())
    _old_write_csv(
        os.path.join(run_dir, f"{prefix}_intervals.csv"),
        ["id", "cl", "y_hat", "half_width", "lower", "upper", "unbounded"],
        rows,
    )


def _conformal_result(n_cal, n_test, cls, seed=0):
    """A ConformalResult with random predictions; the levels above 0.9
    have infinite half-widths, as an undersized calibration set gives."""
    rng = np.random.default_rng(seed)
    cal_pred = from_passes(rng.standard_normal((n_cal, 4)))
    _cal, detail = build_calibration(rng.standard_normal(n_cal), cal_pred,
                                     ids=[f"c{i}" for i in range(n_cal)])
    test_pred = from_passes(rng.standard_normal((n_test, 4)))
    intervals = {}
    for cl in cls:
        half = math.inf if cl > 0.9 else cl * np.exp(test_pred.stds)
        intervals[float(cl)] = np.column_stack((test_pred.means - half, test_pred.means + half))
    return ConformalResult(intervals=intervals, calibration_detail=detail, test_prediction=test_pred)


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
        assert b"x,0.1,3,1,0.5\n" in new and b"None" in new

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
        _old_dump_conformal("m", result, ids, tmp_path / "old")
        _dump_conformal("m", result, ids, tmp_path / "new")
        for name in ("m_calibration.csv", "m_intervals.csv"):
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()
        assert b",0.95," in (tmp_path / "new" / "m_intervals.csv").read_bytes()
        assert b"-inf,inf,1\n" in (tmp_path / "new" / "m_intervals.csv").read_bytes()

    def test_ids_that_need_quotes_read_back(self, tmp_path):
        # load_table reads ids with csv.reader, so a quoted id may hold any of these
        ids = ("c,0", 'q"1', "n\n2", "r\r3", "plain")
        write_csv(tmp_path / "t.csv", ["id", "y"], [[ids, np.arange(5.0)]])
        _dump_conformal("m", _conformal_result(n_cal=3, n_test=5, cls=(0.5, 0.8)), ids, tmp_path)
        for name, width in (("t.csv", 2), ("m_intervals.csv", 7)):
            with open(tmp_path / name, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert all(len(row) == width for row in rows)
            assert tuple(row[0] for row in rows[1:6]) == ids
        assert (tmp_path / "t.csv").read_bytes() == (
            b'id,y\n"c,0",0.0\n"q""1",1.0\n"n\n2",2.0\n"r\r3",3.0\nplain,4.0\n')

    def test_interval_table_streams_one_level_at_a_time(self, tmp_path):
        # 99 levels x 750 rows is about 7 MB; holding all rows' strings at
        # once would peak above that
        cls = [round(0.01 * i, 2) for i in range(1, 100)]
        result = _conformal_result(n_cal=10, n_test=750, cls=cls)
        ids = tuple(f"s{i:06d}" for i in range(750))
        tracemalloc.start()
        try:
            _dump_conformal("m", result, ids, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = os.path.getsize(tmp_path / "m_intervals.csv")
        assert size > 5_000_000
        assert peak < size / 10


def test_import_leaves_the_process_pool_out():
    # run_experiment imports concurrent.futures only for workers > 1
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dropconf; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
