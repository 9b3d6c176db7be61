"""How much of its tolerance each Monte Carlo row uses, over many seeds.

Runs the named suites (every configured suite by default) once per run
seed at one replicate count, and prints for each sampled row the p50,
p90 and maximum of ``abs_diff / tolerance`` over the seeds, then every
FAIL.  Under the z = 4 rule, a row whose difference of means is Gaussian
has a p90 of about 0.41 (the 90th percentile of |Z|, 1.645, over 4); a
row whose p90 exceeds 1.5 times that is flagged, because its standard
error understates its spread.  Exact rows (0 replicates) are left out.

Usage, with ``src`` on ``PYTHONPATH``::

    python tests/calibrate.py mecke wi_isometry --seeds 0-63 7919 --replicates 200000

The exit status is 1 when a case raised (an ``ERROR`` row), else 0:
FAILs and flags are measurements, not errors.  Pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from poisson_chaos.config import load_config
from poisson_chaos.suites import run_suite

GAUSSIAN_P90 = 0.41
FLAG_FACTOR = 1.5


def parse_seeds(tokens: list[str]) -> list[int]:
    """Run seeds from tokens like ``7919`` and ``0-63`` (both ends included)."""
    seeds = []
    for token in tokens:
        lo, _, hi = token.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def calibrate(suites: list[str], seeds: list[int], replicates: int | None = None,
              config_path: str | None = None) -> tuple[dict, list, list]:
    """``abs_diff / tolerance`` by sampled row over ``seeds``, with the
    FAILs and ERRORs as ``(row, seed, detail)`` triples."""
    config = load_config(config_path)
    if replicates is not None:
        config.replicates = replicates
    ratios: dict[str, list[float]] = {}
    fails, errors = [], []
    for seed in seeds:
        config.seed = seed
        for suite in suites or config.suites:
            for row in run_suite(suite, config):
                name = f"{row.suite}/{row.case_id}"
                if row.verdict == "ERROR":
                    errors.append((name, seed, row.error))
                    continue
                if row.replicates == 0:
                    continue
                ratio = row.abs_diff / row.tolerance
                ratios.setdefault(name, []).append(ratio)
                if row.verdict == "FAIL":
                    fails.append((name, seed, ratio))
    return ratios, fails, errors


def flagged(values: list[float]) -> bool:
    return float(np.quantile(values, 0.9)) > FLAG_FACTOR * GAUSSIAN_P90


def table(ratios: dict) -> list[str]:
    """One line per row: runs, p50, p90 and max of the ratio, and a flag."""
    width = max((len(name) for name in ratios), default=3)
    lines = [f"{'row':<{width}}  runs    p50    p90    max"]
    for name, values in ratios.items():
        p50, p90 = np.quantile(values, [0.5, 0.9])
        flag = "  FLAG" if flagged(values) else ""
        lines.append(f"{name:<{width}}  {len(values):4d}  {p50:5.3f}  {p90:5.3f}  "
                     f"{max(values):5.3f}{flag}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suites", nargs="*", help="suites to run (default: every configured one)")
    parser.add_argument("--seeds", nargs="+", default=["0-63", "7919"], metavar="SEEDS",
                        help="run seeds, single or as ranges like 0-63 (default: 0-63 7919)")
    parser.add_argument("--replicates", type=int, default=None, metavar="N",
                        help="replicate count (default: the configured one)")
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="JSON configuration (packaged default when omitted)")
    args = parser.parse_args(argv)
    ratios, fails, errors = calibrate(args.suites, parse_seeds(args.seeds), args.replicates,
                                      args.config)
    for line in table(ratios):
        print(line)
    for name, seed, ratio in fails:
        print(f"FAIL {name} at seed {seed}: {ratio:.2f} of its tolerance")
    for name, seed, error in errors:
        print(f"ERROR {name} at seed {seed}: {error}")
    runs = sum(len(values) for values in ratios.values())
    print(f"{len(ratios)} sampled rows, {sum(map(flagged, ratios.values()))} flagged "
          f"(p90 > {FLAG_FACTOR * GAUSSIAN_P90:.3f}); {len(fails)} FAILs in {runs} row runs")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
