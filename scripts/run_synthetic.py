#!/usr/bin/env python3
"""Run the synthetic benchmark end to end and print the aggregate summary
and the sha256 of the manifest.json it wrote.

By default this uses the small deterministic experiment in
fixtures/synthetic.cfg; point --config at another file for a bigger sweep.
The manifest digest is what a change that must keep every output byte
compares: `python3 scripts/run_synthetic.py --seed 7` before and after.
"""

import argparse
import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from dropconf.config import parse_config
from dropconf.runner import run_experiment

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=os.path.join(ROOT, "fixtures", "synthetic.cfg"))
    ap.add_argument("--out", default=None, help="output directory (default: from config)")
    ap.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = ap.parse_args(argv)

    cfg = parse_config(args.config)
    if args.seed is not None:
        from dataclasses import replace

        cfg = replace(cfg, seed=args.seed)
    artifacts = run_experiment(cfg, out_dir=args.out)
    out_dir = artifacts.out_dir
    with open(os.path.join(out_dir, "manifest.json"), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    print(f"results written to {out_dir}")
    print(f"manifest.json sha256 {digest}")
    for r, key, reason in artifacts.failures:
        print(f"warning: run {r} {key}: {reason}", file=sys.stderr)
    for model, agg in artifacts.aggregate["models"].items():
        rmse = agg["rmse"]["mean"]
        r2 = agg["r_squared"]["mean"]
        r2_text = f"{r2:.4f}" if r2 is not None else "n/a"
        print(f"  {model}: rmse {rmse:.4f}, calibration R^2 {r2_text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
