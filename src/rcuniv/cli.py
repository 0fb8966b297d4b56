"""Command line interface: run experiments, verify properties, sample paths.

Exit codes: 0 success, 1 verify failure or unexpected error, 2 config
error (schema or value), 3 ESP certification failure, 4 numeric overflow.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import harness
from .harness import ConfigError
from .reservoirs import EspNotCertifiedError, StateOverflowError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_ESP = 3
EXIT_OVERFLOW = 4


def _cmd_run(args) -> int:
    try:
        doc = json.loads(Path(args.config).read_text())
        cfg = harness.load_config(doc)
        rows = harness.run_experiment(cfg, args.out)
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EspNotCertifiedError as exc:
        print(f"esp certification failed: {exc}", file=sys.stderr)
        return EXIT_ESP
    except StateOverflowError as exc:
        print(f"numeric overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    for row in rows:
        print(
            f"{row['family']} N={row['N']} target={row['target']} "
            f"p={row['p']:g} error={row['value']:.6g} +- {row['stderr']:.2g}"
        )
    print(f"wrote {len(rows)} rows to {Path(args.out) / 'results.csv'}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        checks = harness.verify_suite(args.suite)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name} margin={c.margin:.3g} ({c.detail})")
    if args.json:
        print(json.dumps([asdict(c) for c in checks], indent=2))
    return EXIT_OK if all(c.passed for c in checks) else EXIT_FAIL


def _cmd_sample(args) -> int:
    try:
        sampler = harness.load_sampler(json.loads(Path(args.sampler).read_text()))
        paths = harness.write_sample_paths(sampler, args.T, args.M, args.seed, args.out)
    except (ValueError, OSError) as exc:  # ConfigError and bad JSON are ValueErrors
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {len(paths)} path files to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcuniv",
        description="Reservoir approximation experiments with stochastic inputs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(fn=_cmd_run)

    p_verify = sub.add_parser("verify", help="run built-in property suites")
    p_verify.add_argument(
        "suite", nargs="?", default="all",
        help=f"one of {sorted(harness.VERIFY_SUITES)} or 'all' (default)",
    )
    p_verify.add_argument("--json", action="store_true",
                          help="also print a JSON report")
    p_verify.set_defaults(fn=_cmd_verify)

    p_sample = sub.add_parser("sample", help="emit sampled path CSVs")
    p_sample.add_argument("sampler", help="path to a JSON sampler description")
    p_sample.add_argument("-T", type=int, required=True, help="window length")
    p_sample.add_argument("-M", type=int, required=True, help="number of paths")
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--out", required=True, help="output directory")
    p_sample.set_defaults(fn=_cmd_sample)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
