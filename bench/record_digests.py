"""Record the report digest of each workload and seed into ``digests.json``.

Run from the repository root at the commit whose reports later runs are
compared against:

    python3 bench/record_digests.py --seeds 0-31 7919

Each seed runs once per workload in a fresh process at the full size.
A seed on which any case fails is reported and not recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from run import BENCH, Runner
from workloads import WORKLOADS


def parse_seeds(items: list[str]) -> list[int]:
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges a-b")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    args = parser.parse_args()

    root = Path.cwd()
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    path = BENCH / "digests.json"
    table = json.loads(path.read_text(encoding="utf-8"))
    threads = len(os.sched_getaffinity(0))
    failures = 0
    for workload in args.workloads:
        recorded = table["workloads"].setdefault(workload, {})
        for seed in parse_seeds(args.seeds):
            run_args = argparse.Namespace(workload=workload, seed=seed, size=table["size"])
            record = Runner(root, out, run_args, threads).spawn("run", 0)
            failed = record["cases"] - record["passed"]
            print(f"{workload} seed {seed}: {record['digest']} "
                  f"{failed} failed, {record['wall_s']:.2f}s", flush=True)
            if failed:
                failures += 1
                continue
            recorded[str(seed)] = record["digest"]
        table["workloads"][workload] = dict(sorted(recorded.items(), key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
