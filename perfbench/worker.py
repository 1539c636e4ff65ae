"""Child process of the benchmark: set up one workload, then time it.

Set-up is the imports, input generation and a warm-up experiment on the
tiny size of the workload; the process reports how long it took since the
parent spawned it, and times the reference block right after. Unless
``--setup-only`` is given it then calls ``dropconf.runner.run_experiment``
repeatedly, one call at a time, timing the reference block before each
untraced call, checks every call's outputs and prints one JSON line of
results.

With ``--trace 1`` the first half of the time runs untraced and the second
half with spans installed (see spans.py); the difference of the two median
experiment times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

import numpy as np  # noqa: E402

import dropconf  # noqa: E402,F401  (loads every dropconf module for patching)
import dropconf.config  # noqa: E402
import dropconf.runner  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
# Chance that a valid predictor fails the coverage check in one experiment.
FAMILY_ALPHA = 1e-4

# The machine's speed drifts by 10 to 30 % over tens of seconds, more than a
# 35 s run can average out. A fixed block of float work that no dropconf change
# can alter is timed before every repetition, so the parent can scale the
# experiment time to a machine of fixed speed (see run.py).
REFERENCE_MATRIX = np.random.default_rng(0).random((256, 256))
REFERENCE_MATMULS = 25
REFERENCE_SAMPLES = 6


def reference_samples() -> list:
    """Wall times of REFERENCE_SAMPLES blocks of REFERENCE_MATMULS products."""
    out = []
    for _ in range(REFERENCE_SAMPLES):
        t0 = perf_counter()
        for _ in range(REFERENCE_MATMULS):
            REFERENCE_MATRIX @ REFERENCE_MATRIX
        out.append(perf_counter() - t0)
    return out


def _log_beta(a, b) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def coverage_tail(covered: int, m: int, n: int, cl: float) -> float:
    """P(at most ``covered`` of m test points covered) for a valid predictor.

    With n exchangeable calibration scores, split conformal covers each test
    point at level cl with probability C ~ Beta(k, n + 1 - k), where
    k = ceil(cl (n + 1)), so the covered count is beta-binomial(m, k, n+1-k).
    k > n gives unbounded intervals, which always cover.
    """
    k = math.ceil(cl * (n + 1) - 1e-9)
    if k > n:
        return 1.0
    a, b = k, n + 1 - k
    j = np.arange(covered)
    # log pmf(0), then the ratios pmf(j+1) / pmf(j)
    steps = np.log(m - j) - np.log(j + 1) + np.log(j + a) - np.log(m - j - 1 + b)
    logs = _log_beta(a, m + b) - _log_beta(a, b) + np.concatenate(([0.0], np.cumsum(steps)))
    top = logs.max()
    return float(np.exp(top) * np.exp(logs - top).sum())


def coverage_looks(out_dir: str) -> list:
    """(run, model, cl, coverage, n_test, n_cal) for every level of every
    report written under out_dir."""
    looks = []
    for run in sorted(d for d in os.listdir(out_dir) if d.startswith("run_")):
        run_dir = os.path.join(out_dir, run)
        for name in sorted(f for f in os.listdir(run_dir) if f.endswith("_report.json")):
            with open(os.path.join(run_dir, name), encoding="utf-8") as fh:
                report = json.load(fh)
            with open(os.path.join(run_dir, f"{report['model']}_calibration.csv"),
                      encoding="utf-8") as fh:
                n_cal = sum(1 for _ in fh) - 1
            n_test = len(report["sigma"])
            for cl, cov in zip(report["curve"]["cl"], report["curve"]["coverage"]):
                looks.append((run, report["model"], cl, cov, n_test, n_cal))
    return looks


def coverage_violations(looks) -> list:
    """The looks whose coverage a valid predictor undercuts with probability
    below FAMILY_ALPHA shared out over all looks (Bonferroni)."""
    cut = FAMILY_ALPHA / max(1, len(looks))
    return [
        (run, model, cl, cov, n_test, n_cal)
        for run, model, cl, cov, n_test, n_cal in looks
        if coverage_tail(round(cov * n_test), n_test, n_cal, cl) < cut
    ]


def below_acceptance_floor(looks) -> int:
    """Looks below the acceptance suite's cl - 3 sqrt(cl (1 - cl) / n_test).

    That floor ignores the calibration set's own sampling error and the
    number of levels checked; it is reported, not enforced.
    """
    return sum(
        cov < cl - 3.0 * math.sqrt(cl * (1.0 - cl) / n_test)
        for _run, _model, cl, cov, n_test, _n_cal in looks
    )


def expected_models(cfg) -> set:
    keys = set()
    if "dnn" in cfg.models:
        keys |= {f"dnn_p{p:g}" for p in cfg.dropout_p}
    if "rf" in cfg.models:
        keys.add("rf")
    return keys


def quality(aggregate: dict, default_cl: float) -> dict:
    """Interval quality from summary.json's aggregate, averaged over models:
    coverage and mean finite width at the default level, test RMSE, and the
    mean |coverage - cl| over the whole grid."""
    models = aggregate["models"].values()
    key = repr(float(default_cl))
    return {
        "coverage_cl80": statistics.fmean(agg["coverage"][key]["mean"] for agg in models),
        "width_cl80": statistics.fmean(agg["mean_width"][key]["mean"] for agg in models),
        "rmse": statistics.fmean(agg["rmse"]["mean"] for agg in models),
        "coverage_err": statistics.fmean(
            abs(ms["mean"] - float(cl)) for agg in models for cl, ms in agg["coverage"].items()),
    }


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Measurement:
    """One measured workload: the parsed config and every repetition's outcome."""

    def __init__(self, cfg_path: str, out_dir: str):
        self.cfg_path = cfg_path
        self.cfg = dropconf.config.parse_config(cfg_path)
        self.out_dir = out_dir
        self.times = {"plain": [], "traced": []}
        self.reference = []  # reference_samples() of the untraced repetitions
        self.failures = []  # (rep, reason)
        self.first = None  # what the first completed repetition produced
        self.attempted = 0

    def rep(self, mode: str, tracer=None) -> None:
        index = self.attempted
        self.attempted += 1
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()
        if mode == "plain":
            self.reference += reference_samples()
        if tracer is not None:
            tracer.rep = index
            dropconf.config.parse_config(self.cfg_path)
        t0 = perf_counter()
        try:
            art = dropconf.runner.run_experiment(self.cfg, out_dir=self.out_dir)
        except Exception:
            self.failures.append((index, traceback.format_exc(limit=3)))
            return
        finally:
            self.times[mode].append(perf_counter() - t0)
        reasons = [f"run {r} {key}: {why}" for r, key, why in art.failures]
        missing = expected_models(self.cfg) - set(art.reports)
        if missing:
            reasons.append(f"no report for {sorted(missing)}")
        looks = coverage_looks(self.out_dir)
        reasons += [
            f"{run} {model}: coverage {cov!r} at cl {cl!r} is improbably low for "
            f"n_test={n_test}, n_cal={n_cal}"
            for run, model, cl, cov, n_test, n_cal in coverage_violations(looks)
        ]
        digest = file_sha256(os.path.join(self.out_dir, "manifest.json"))
        if self.first is None:
            self.first = {
                "manifest_sha256": digest,
                "quality": quality(art.aggregate, self.cfg.default_cl),
                "below_floor": [below_acceptance_floor(looks), len(looks)],
            }
        elif digest != self.first["manifest_sha256"]:
            reasons.append(f"manifest {digest} differs from the first repetition's "
                           f"{self.first['manifest_sha256']}")
        if reasons:
            self.failures.append((index, "; ".join(reasons)))

    def run_for(self, seconds: float, mode: str, tracer=None) -> None:
        """Repeat until the next repetition would overrun ``seconds``."""
        start = perf_counter()
        while True:
            self.rep(mode, tracer)
            done = self.times[mode]
            elapsed = perf_counter() - start
            if len(done) >= MIN_REPS and elapsed + statistics.median(done) > seconds:
                return


def layer_metrics(tracer, reps, plain_median: float, traced_times) -> dict:
    """Per-layer metrics: the median over traced reps of each rep's totals."""
    per_rep = [spans.rep_totals(tracer.spans, r) for r in reps]

    def med(name, field):
        return statistics.median(t.get(name, {}).get(field, 0) for t in per_rep)

    out = {}
    for name, _home, _attr, count, _bindings in spans.TARGETS:
        out[f"{name}.s"] = med(name, "s")
        out[f"{name}.self_s"] = med(name, "self_s")
        out[f"{name}.calls"] = med(name, "calls")
        if count is not None:
            out[f"{name}.{count[0]}"] = med(name, "count")
    traced = statistics.median(traced_times)
    out["trace.experiment_s"] = traced
    out["trace.overhead_s"] = traced - plain_median
    # the outer timer minus the self time of every span inside the experiment
    out["trace.unaccounted_s"] = statistics.median(
        t_outer - sum(v["self_s"] for k, v in t.items() if k != "config.parse_config")
        for t, t_outer in zip(per_rep, traced_times)
    )
    for layer in sorted({name.split(".")[0] for name, *_ in spans.TARGETS} - {"config"}):
        out[f"share.{layer}"] = statistics.median(
            sum(v["self_s"] for k, v in t.items() if k.split(".")[0] == layer) / t_outer
            for t, t_outer in zip(per_rep, traced_times)
        )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--work", required=True, help="scratch directory for inputs and outputs")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="the parent's perf_counter() when it started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="where to write the traced spans")
    args = ap.parse_args(argv)

    inputs = os.path.join(args.work, "inputs")
    cfg_path = workloads.write_inputs(args.workload, args.seed, args.size, inputs)
    warm_cfg = workloads.write_inputs(args.workload, args.seed, "tiny", inputs)
    dropconf.runner.run_experiment(dropconf.config.parse_config(warm_cfg),
                                   out_dir=os.path.join(args.work, "warmup"))
    setup_s = perf_counter() - args.spawned_at
    setup_reference = statistics.median(reference_samples())
    input_digest = hashlib.sha256()
    for name in sorted(os.listdir(inputs)):
        digest = file_sha256(os.path.join(inputs, name))
        input_digest.update(f"{name}\0{digest}\n".encode())
    result = {"setup_s": setup_s, "setup_reference_s": setup_reference,
              "inputs_sha256": input_digest.hexdigest()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    measurement = Measurement(cfg_path, os.path.join(args.work, "out"))
    if args.trace:
        measurement.run_for(args.seconds / 2, "plain")
        tracer = spans.Tracer()
        tracer.install()
        first_traced = measurement.attempted
        try:
            measurement.run_for(args.seconds / 2, "traced", tracer)
        finally:
            tracer.uninstall()
        if args.spans:
            tracer.dump(args.spans)
        result["layers"] = layer_metrics(
            tracer, range(first_traced, measurement.attempted),
            statistics.median(measurement.times["plain"]), measurement.times["traced"],
        )
    else:
        measurement.run_for(args.seconds, "plain")
    if measurement.first is None:
        for _rep, why in measurement.failures:
            print(why, file=sys.stderr)
        print("no repetition completed", file=sys.stderr)
        return 1
    result.update(
        experiment_s=measurement.times["plain"],
        reference_s=measurement.reference,
        traced_s=measurement.times["traced"],
        attempted=measurement.attempted,
        failures=measurement.failures,
        **measurement.first,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
