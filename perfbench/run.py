#!/usr/bin/env python3
"""dropconf benchmark: time ``run_experiment`` on one workload and check it.

    python3 perfbench/run.py --workload rf_cv --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. One closed-loop client runs one experiment
at a time (``workers = 1``) in a child process with one BLAS thread. Times
are scaled to a machine of fixed speed by a reference block timed next to
them. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The lines before it give every metric with its unit and
sample count, the unscaled times, the environment and the manifest digest. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference_digests.json")
SETUP_SAMPLES = 7
# The time of worker.reference_samples()'s block that the reported times are
# scaled to: about its median on the 2-vCPU VM the benchmark was tuned on.
REFERENCE_NOMINAL_S = 0.023
# Every child is killed once the run is this far past its start, so the
# benchmark always exits within 180 s.
DEADLINE_S = 170.0


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    # One thread: the experiment and the reference block then run on one core
    # and see the same machine speed, whatever runs on the other cores.
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        # every run compiles from source, so set-up time does not depend on
        # whether an earlier run left bytecode caches behind
        PYTHONDONTWRITEBYTECODE="1",
    )
    return env


def run_worker(args, work: str, extra, deadline: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--work", work,
    ] + list(extra)
    spawned_at = time.perf_counter()
    cmd += ["--spawned-at", repr(spawned_at)]
    timeout = max(1.0, deadline - spawned_at)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising
        fail(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scaled(seconds: float, reference_s: float) -> float:
    """``seconds`` on a machine whose reference block takes REFERENCE_NOMINAL_S."""
    return seconds * REFERENCE_NOMINAL_S / reference_s


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def reference_digest(workload: str, seed: int):
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def record_reference(workload: str, seed: int, digest: str) -> None:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    table.setdefault(workload, {})[str(seed)] = digest
    table = {w: dict(sorted(table[w].items(), key=lambda kv: int(kv[0]))) for w in sorted(table)}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the same code on a few rows (smoke test)")
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's manifest digest as the reference for its seed")
    args = ap.parse_args(argv)

    if args.seed < 0:
        fail("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "dropconf", "runner.py")):
        fail(f"no dropconf sources under {os.path.join(ROOT, 'src')}")
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(OUT, exist_ok=True)
    deadline = time.perf_counter() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, work, ["--setup-only"], deadline))
        extra = []
        if args.trace:
            extra = ["--spans", os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")]
        res = run_worker(args, work, extra, deadline)
        setups.append(res)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if len({s["inputs_sha256"] for s in setups}) != 1:
        fail("the input generator wrote different bytes for the same seed")

    failures = res["failures"]
    attempted = res["attempted"]
    env = res["env"]
    with open(os.path.join(OUT, "env.json"), "w", encoding="utf-8") as fh:
        json.dump(env, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("environment: " + json.dumps(env, sort_keys=True))

    digest = res["manifest_sha256"]
    ref = reference_digest(args.workload, args.seed)
    if args.size != "full":
        verdict = "references are for the full size"
    elif args.record_reference:
        record_reference(args.workload, args.seed, digest)
        verdict = "recorded as reference"
    elif ref is None:
        verdict = "no reference for this seed"
    else:
        verdict = "matches reference" if ref == digest else f"DIFFERS from reference {ref}"
    print(f"manifest sha256 {args.workload} seed {args.seed}: {digest} ({verdict})")
    for rep, why in failures:
        print(f"repetition {rep} failed: {why}")
    below, looks = res["below_floor"]
    print(f"levels below the acceptance-suite floor cl - 3*sqrt(cl*(1-cl)/n_test): "
          f"{below} of {looks} (reported, not counted as failures)")

    times = res["experiment_s"]
    wall_s = statistics.median(times)
    reference_s = statistics.median(res["reference_s"])
    setup_scaled = [scaled(s["setup_s"], s["setup_reference_s"]) for s in setups]
    if args.trace:
        values = res["layers"]
        samples = {name: len(res["traced_s"]) for name in values}
        section = "per_layer"
    else:
        values = dict(
            res["quality"],
            experiment_s=scaled(wall_s, reference_s),
            setup_s=statistics.median(setup_scaled),
            peak_rss_mb=res["peak_rss_mb"],
            pass_frac=1.0 - len(failures) / attempted,
        )
        samples = {name: 1 for name in values}
        samples.update(experiment_s=len(times), setup_s=len(setups), pass_frac=attempted)
        section = "end_to_end"
    print("unscaled experiment wall time samples: " + " ".join(f"{t:.4f}" for t in times))
    print(f"unscaled experiment wall time median = {wall_s!r} s; reference block median = "
          f"{reference_s!r} s over {len(res['reference_s'])} samples "
          f"(nominal {REFERENCE_NOMINAL_S} s)")
    print("unscaled setup samples: " + " ".join(f"{s['setup_s']:.4f}" for s in setups))
    print("setup reference block samples: "
          + " ".join(f"{s['setup_reference_s']:.4f}" for s in setups))
    print("scaled setup samples: " + " ".join(f"{v:.4f}" for v in setup_scaled))
    print(f"failed_frac = {len(failures) / attempted!r} ({len(failures)} of {attempted})")
    print(f"coverage_err = {res['quality']['coverage_err']!r} frac "
          "(mean |coverage - cl| over the grid; reported, not gated)")
    metrics = {}
    for m in spec[section]:
        name, unit = m["name"], m["unit"]
        if name not in values:
            fail(f"the benchmark computed no value for {name}")
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} = {values[name]!r} {unit} (n={samples[name]})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
