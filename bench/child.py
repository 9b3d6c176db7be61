"""One benchmark execution in a fresh interpreter; started by ``run.py``.

Every timed execution is a new process because the package's LRU
tables and enumeration cache are per process, and every ``verify``
invocation pays to fill them.  The process prints one JSON record as
the last line of its standard output.

    python3 bench/child.py --workload W --seed N --size full --mode run
        --trace 0 --t0 T --out DIR

``--t0`` is the parent's ``perf_counter()`` just before the process was
started (a system-wide monotonic clock on Linux), so ``setup_s`` runs
from interpreter start to inputs ready.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import numpy as np
    import poisson_chaos
    import poisson_chaos.cli  # noqa: F401  loads every package module

    expected = (Path.cwd() / "src" / "poisson_chaos").resolve()
    if Path(poisson_chaos.__file__).resolve().parent != expected:
        print(f"error: imported poisson_chaos from {poisson_chaos.__file__}, "
              f"not from {expected}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    out = Path(args.out)
    job = workloads.prepare(args.workload, args.seed, args.size, out)
    if args.mode == "setup":
        job.setup_only()
        print(json.dumps({"setup_s": perf_counter() - args.t0}))
        return 0

    t_ready = perf_counter()
    cpu_ready = _cpu_seconds()
    outcome = job.run()
    t_done = perf_counter()
    cpu_done = _cpu_seconds()

    load_s = job.load_seconds
    record = {
        "setup_s": t_ready - args.t0 + load_s,
        "wall_s": t_done - t_ready - load_s,
        "cpu_s": cpu_done - cpu_ready,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "case_seconds": outcome.case_seconds,
        "cases": outcome.cases,
        "passed": outcome.passed,
        "errors": outcome.errors,
        "replicates": outcome.replicates,
        "enum_states": outcome.enum_states,
        "digest": outcome.digest,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workers": poisson_chaos.worker_count(),
    }
    if tracer is not None:
        suite_names = list(poisson_chaos.cli.SUITES)
        layers = tracing.layer_metrics(tracer.spans, record["workers"], suite_names)
        layers["suites.case_errors"] = len(outcome.errors)
        spans_path = out / f"spans-{args.workload}-{args.seed}-{os.getpid()}.jsonl.gz"
        tracer.write(spans_path)
        record["layers"] = layers
        record["spans_file"] = str(spans_path)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
