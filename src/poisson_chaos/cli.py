"""Command line entry point.

Usage: ``verify <suite|all> [options]``.  Exit status 0 when every
executed case passes, 1 when any fails or raises (an ``ERROR`` row),
2 on usage or configuration errors.  Reports are written without wall-clock times by default so
repeated runs produce byte-identical files; pass ``--timing`` to record
measured times instead.
"""

from __future__ import annotations

import argparse
import sys
import time

from .config import check_seed, load_config
from .errors import ConfigError
from .report import summary_lines, write_report
from .suites import run_suite, suite_names, SUITES

USAGE_EXIT = 2
FAIL_EXIT = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run verification suites for the Poisson stochastic calculus.")
    parser.add_argument("suite", nargs="?", default=None,
                        help="suite name, or 'all' for every configured suite")
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="JSON configuration (packaged default when omitted)")
    parser.add_argument("--seed", type=int, default=None, metavar="U64",
                        help="override the configured base seed")
    parser.add_argument("--replicates", type=int, default=None, metavar="N",
                        help="override the configured replicate count")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write the report rows to this file")
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                        help="report file format")
    parser.add_argument("--list", action="store_true",
                        help="list available suites and exit")
    parser.add_argument("--timing", action="store_true",
                        help="record measured wall times in the report "
                             "(breaks byte-for-byte reproducibility)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for name in suite_names():
            print(f"{name}: {SUITES[name].description}")
        return 0

    if args.suite is None:
        parser.print_usage(sys.stderr)
        print("error: a suite name (or 'all') is required", file=sys.stderr)
        return USAGE_EXIT

    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = check_seed(args.seed, "--seed")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    if args.replicates is not None:
        if args.replicates < 1:
            print("error: --replicates must be >= 1", file=sys.stderr)
            return USAGE_EXIT
        config.replicates = args.replicates

    if args.suite == "all":
        selected = list(config.suites)
    elif args.suite in suite_names():
        selected = [args.suite]
    else:
        print(f"error: unknown suite {args.suite!r}; try --list", file=sys.stderr)
        return USAGE_EXIT

    rows = []
    started = time.perf_counter()
    try:
        for name in selected:
            rows.extend(run_suite(name, config))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    elapsed = time.perf_counter() - started

    for line in summary_lines(rows):
        print(line)
    failures = sum(row.verdict != "PASS" for row in rows)
    print(f"{len(rows) - failures}/{len(rows)} cases passed "
          f"in {elapsed:.1f}s across {len(selected)} suite(s)")

    if args.report:
        write_report(rows, args.report, fmt=args.format, include_timing=args.timing)

    return FAIL_EXIT if failures else 0


if __name__ == "__main__":
    sys.exit(main())
