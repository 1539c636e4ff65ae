"""Command-line entry point: run experiments, re-aggregate, validate configs."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import ConfigError, parse_config
from .data import DataError, load_table
from .runner import reaggregate, run_experiment


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

    rep_p = sub.add_parser("report", help="re-aggregate reports from an output directory")
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
            out_dir = args.out or cfg.out_dir
            artifacts = run_experiment(cfg, out_dir=out_dir, only_run=args.only_run)
            n_files = len(artifacts.manifest["files"])
            print(f"wrote {n_files} files to {artifacts.out_dir}")
            for r, key, reason in artifacts.failures:
                print(f"warning: run {r} {key}: {reason}", file=sys.stderr)
            return 0
        if args.command == "report":
            reaggregate(None, args.in_dir)
            print(f"re-aggregated {args.in_dir}")
            return 0
        if args.command == "validate-config":
            cfg = parse_config(args.config)
            if cfg.dataset is not None:  # run's row checks, on the table's row count
                try:
                    n_rows = load_table(cfg.dataset).n_rows
                except DataError as exc:
                    raise ConfigError(f"dataset: {exc}") from None
                cfg.check_rows(n_rows, "train_fraction, val_fraction, test_fraction")
            print("config ok")
            return 0
    except (ConfigError, DataError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
