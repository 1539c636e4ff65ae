"""Command-line entry point: run experiments, re-aggregate, validate configs."""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import replace

from .config import parse_config
from .runner import load_experiment_dataset, reaggregate, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dropconf")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the full experiment from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None, help="output directory (overrides config)")
    run_p.add_argument("--seed", type=int, default=None, help="root seed (overrides config)")
    run_p.add_argument("--workers", type=int, default=None, help="parallel run workers")
    run_p.add_argument("--only-run", type=int, default=None,
                       help="execute a single run index (for reproducing one run)")

    rep_p = sub.add_parser("report", help="re-evaluate and re-aggregate an output directory's runs")
    rep_p.add_argument("--in", dest="in_dir", required=True)

    val_p = sub.add_parser("validate-config", help="parse and validate a config file")
    val_p.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = parse_config(args.config)
            if args.seed is not None:
                cfg = replace(cfg, seed=args.seed)
            if args.workers is not None:
                cfg = replace(cfg, workers=args.workers)
            artifacts = run_experiment(cfg, out_dir=args.out, only_run=args.only_run)
            print(f"wrote {len(artifacts.manifest['files'])} files to {artifacts.out_dir}")
            with open(os.path.join(artifacts.out_dir, "manifest.json"), "rb") as fh:
                print(f"manifest.json sha256 {hashlib.sha256(fh.read()).hexdigest()}")
            for model, agg in artifacts.aggregate["models"].items():
                r2 = agg["r_squared"]["mean"]
                r2_text = "n/a" if r2 is None else f"{r2:.4f}"
                print(f"  {model}: rmse {agg['rmse']['mean']:.4f}, calibration R^2 {r2_text}")
            for r, key, reason in artifacts.failures:
                print(f"warning: run {r} {key}: {reason}", file=sys.stderr)
        elif args.command == "report":
            reaggregate(args.in_dir)
            print(f"re-aggregated {args.in_dir}")
        else:  # validate-config
            cfg = parse_config(args.config)
            if cfg.dataset is not None:  # run's checks of the table, without its synthetic data
                load_experiment_dataset(cfg)
            print("config ok")
    except (OSError, ValueError) as exc:  # ConfigError and DataError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
