"""Smoke test of the benchmark on the tiny size of each workload.

    python3 -m pytest perfbench/test_smoke.py -q

It is not part of the repository's test suite (pytest's testpaths is
``tests``); run it after changing anything under perfbench/.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

# worker puts the repository's src/ on sys.path, so it comes before dropconf
from worker import Measurement, coverage_tail, layer_metrics  # isort: skip
import dropconf.conformal  # isort: skip
import dropconf.ensemble  # isort: skip
import dropconf.net  # isort: skip
import dropconf.runner  # isort: skip
import spans  # isort: skip
import workloads  # isort: skip

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(workload, trace, section):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(ln.startswith(f"{name} = ") and f" {unit} (n=" in ln for ln in lines), name
    assert any(ln.startswith(f"manifest sha256 {workload} seed 3: ") for ln in lines)
    assert any(ln.startswith("environment: ") and '"nproc"' in ln for ln in lines)


def _measurement(tmp_path, workload="rf_cv"):
    cfg_path = workloads.write_inputs(workload, 3, "tiny", str(tmp_path / "inputs"))
    return Measurement(cfg_path, str(tmp_path / "out"))


def test_tracer_wraps_every_binding_and_restores_it():
    bindings = (dropconf.runner.train, dropconf.ensemble.forward_batch,
                dropconf.net.forward_batch, dropconf.ensemble.mc_dropout_predict)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert dropconf.runner.train is dropconf.net.train is not bindings[0]
        assert dropconf.ensemble.forward_batch is not bindings[1]
        assert dropconf.net.forward_batch is not bindings[2]
        assert dropconf.ensemble.forward_batch is not dropconf.net.forward_batch
        assert dropconf.conformal.mc_dropout_predict is dropconf.ensemble.mc_dropout_predict
    finally:
        tracer.uninstall()
    assert (dropconf.runner.train, dropconf.ensemble.forward_batch,
            dropconf.net.forward_batch, dropconf.ensemble.mc_dropout_predict) == bindings


def test_span_self_times_account_for_the_experiment(tmp_path):
    measurement = _measurement(tmp_path, "dnn_wide")
    measurement.rep("plain")
    tracer = spans.Tracer()
    tracer.install()
    try:
        measurement.rep("traced", tracer)
    finally:
        tracer.uninstall()
    m = layer_metrics(tracer, [1], measurement.times["plain"][0], measurement.times["traced"])
    assert measurement.failures == []
    assert abs(m["trace.unaccounted_s"]) < 0.01
    shares = sum(v for k, v in m.items() if k.startswith("share."))
    assert shares == pytest.approx(1.0, abs=0.01)
    assert m["ensemble.forward_batch.calls"] == 2 * 2  # two pass streams of 2 passes
    assert m["net.train.epochs"] == 1 and m["data.load_table.rows"] == 60


def test_clean_repetitions_pass(tmp_path):
    measurement = _measurement(tmp_path)
    measurement.rep("plain")
    measurement.rep("plain")
    assert measurement.failures == []


def test_coverage_check_flags_a_run_below_the_floor(tmp_path, monkeypatch):
    # zero-width intervals cover (almost) nothing at every level
    monkeypatch.setattr(dropconf.conformal, "alpha_at_level", lambda cal, cl: 0.0)
    measurement = _measurement(tmp_path)
    measurement.rep("plain")
    assert len(measurement.failures) == 1
    assert "improbably low" in measurement.failures[0][1]


@pytest.mark.parametrize("m, n, cl", [(1, 1, 0.3), (12, 9, 0.8), (20, 15, 0.5), (30, 40, 0.95)])
def test_coverage_tail_matches_the_beta_binomial_sum(m, n, cl):
    k = math.ceil(cl * (n + 1) - 1e-9)
    a, b = k, n + 1 - k

    def log_beta(p, q):
        return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)

    cdf = 0.0
    for x in range(m + 1):
        cdf += math.comb(m, x) * math.exp(log_beta(x + a, m - x + b) - log_beta(a, b))
        assert coverage_tail(x, m, n, cl) == pytest.approx(cdf, rel=1e-9, abs=1e-300)
    assert cdf == pytest.approx(1.0)


def test_unbounded_levels_always_pass():
    # k = ceil(0.95 * 10) = 10 > 9 calibration scores: the interval is the line
    assert coverage_tail(0, 50, 9, 0.95) == 1.0


def test_manifest_check_flags_a_repetition_with_other_bytes(tmp_path):
    measurement = _measurement(tmp_path)
    measurement.rep("plain")
    measurement.cfg = dataclasses.replace(measurement.cfg, cutoffs=(5.0, 6.0))
    measurement.rep("plain")
    assert [rep for rep, _ in measurement.failures] == [1]
    assert "differs from the first repetition" in measurement.failures[0][1]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), "rf_cv", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
