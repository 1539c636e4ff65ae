import json
import os
import tracemalloc

import pytest

from dropconf.cli import main
from dropconf.config import ConfigError, ExperimentConfig, parse_config, parse_config_text
from dropconf.runner import run_experiment, reaggregate

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

    def test_determinism_byte_identical(self, tmp_path):
        cfg = tiny_config()
        a = run_experiment(cfg, out_dir=str(tmp_path / "a"))
        b = run_experiment(cfg, out_dir=str(tmp_path / "b"))
        assert a.manifest == b.manifest

    def test_run_isolation(self, tmp_path):
        cfg = tiny_config()
        run_experiment(cfg, out_dir=str(tmp_path / "out"))
        with open(tmp_path / "out" / "run_001" / "rf_report.json") as fh:
            before = json.load(fh)
        # wipe run 1 and recreate only it
        import shutil

        shutil.rmtree(tmp_path / "out" / "run_001")
        run_experiment(cfg, out_dir=str(tmp_path / "out"), only_run=1)
        with open(tmp_path / "out" / "run_001" / "rf_report.json") as fh:
            after = json.load(fh)
        assert before == after

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

    def test_run_and_report(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "synthetic.n = 120\nsynthetic.d = 3\nseed = 3\nn_runs = 1\n"
            "models = rf\nforest.n_trees = 5\ncv_folds = 3\n"
            "cl_grid = 0.5,0.8\nn_passes = 10\n"
        )
        out = str(tmp_path / "out")
        rc = main(["run", "--config", str(cfg_file), "--out", out])
        assert rc == 0
        rc = main(["report", "--in", out])
        assert rc == 0

    @pytest.mark.parametrize("lines, key", [
        ("synthetic.n = 5\nsynthetic.noise = bogus\n", "synthetic.*"),
        ("synthetic.n = 100\ntrain_fraction = 0.8\nval_fraction = 0.2\n"
         "test_fraction = 0.2\n", "train_fraction"),
    ])
    def test_validate_config_rejects_what_run_rejects(self, tmp_path, capsys, lines, key):
        bad = tmp_path / "bad.cfg"
        bad.write_text(lines)
        assert main(["validate-config", "--config", str(bad)]) == 2
        assert f"error: {key}" in capsys.readouterr().err
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2

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

    def test_run_missing_config(self, capsys):
        rc = main(["run", "--config", "/nope.cfg"])
        assert rc == 2
