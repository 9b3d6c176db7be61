"""Benchmark of poisson-chaos: one workload, timed in fresh interpreters.

Run from the repository root:

    python3 bench/run.py --workload verify_nested --seed 1 --seconds 32 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``verify_nested``,
``verify_flat``, ``verify_exact`` and ``library_dense``.  The seed makes
the inputs: it is ``verify --seed`` for the ``verify_*`` workloads and
the space weights, kernels and Monte Carlo plan seeds for
``library_dense``.

With ``--trace 0`` the run starts a few set-up-only processes and then
one full process after another until ``--seconds`` would be exceeded,
and reports the end-to-end metrics as medians over those processes.
With ``--trace 1`` it alternates untraced and traced processes and
reports the per-layer metrics of the traced ones (see ``tracing.py``)
plus the tracing overhead.  Every process must pass every check and,
within one run, produce the same report digest; the digest is also
compared with the one recorded at the seed commit in ``digests.json``.

Earlier lines of standard output describe the run (manifest, each
metric's median, tail percentile and sample count, digests); the last
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Files go to ``.bench_out/`` in the
current directory.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import SIZES, VERIFY_SUITES, WORKLOADS

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 120
# stop starting processes once another one would likely overrun --seconds
OVERRUN_MARGIN = 1.1

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "slowest_case_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_util", "_per_diff_row")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------
# child processes


class Runner:
    """Starts one child process per execution and collects its record."""

    def __init__(self, root: Path, out: Path, args, threads: int):
        self.root = root
        self.out = out
        self.args = args
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        POISSON_CHAOS_THREADS=str(threads))

    def spawn(self, mode: str, trace: int) -> dict:
        a = self.args
        cmd = [sys.executable, str(BENCH / "child.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--size", a.size, "--mode", mode,
               "--trace", str(trace), "--out", str(self.out), "--t0"]
        start = perf_counter()
        try:
            proc = subprocess.run(cmd + [repr(start)], cwd=self.root, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"error: {a.workload} child exceeded {CHILD_TIMEOUT_S}s")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise SystemExit(f"error: {a.workload} child exited with {proc.returncode}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record["process_s"] = perf_counter() - start
        return record


def timed_runs(runner: Runner, seconds: float) -> tuple[list[float], list[dict]]:
    start = perf_counter()
    setups = [runner.spawn("setup", 0)["setup_s"] for _ in range(SETUP_PROBES)]
    runs: list[dict] = []
    while True:
        record = runner.spawn("run", 0)
        runs.append(record)
        setups.append(record["setup_s"])
        longest = max(r["process_s"] for r in runs)
        if perf_counter() - start + OVERRUN_MARGIN * longest > seconds:
            return setups, runs


def traced_runs(runner: Runner, seconds: float) -> tuple[list[dict], list[dict]]:
    start = perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        plain.append(runner.spawn("run", 0))
        traced.append(runner.spawn("run", 1))
        longest = max(p["process_s"] + t["process_s"] for p, t in zip(plain, traced))
        if perf_counter() - start + OVERRUN_MARGIN * longest > seconds:
            return plain, traced


# ---------------------------------------------------------------------------
# manifest and digests


def git_state(root: Path) -> tuple[str | None, bool | None]:
    if not (root / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=root, capture_output=True, text=True,
                                timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha or None, bool(status)


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    package = root / "src" / "poisson_chaos"
    for path in sorted(package.rglob("*")):
        if path.suffix in (".py", ".json") and path.is_file():
            h.update(str(path.relative_to(package)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def recorded_digest(workload: str, seed: int, size: str) -> str | None:
    table = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    if size != table["size"]:
        return None
    return table["workloads"].get(workload, {}).get(str(seed))


def digest_lines(runs: list[dict], workload: str, seed: int, size: str) -> tuple[bool, list[str]]:
    """Whether every process produced one digest, and lines describing it."""
    digests = sorted({r["digest"] for r in runs})
    lines = []
    if len(digests) != 1:
        lines.append(f"digest: NOT DETERMINISTIC, {len(digests)} digests in one run: "
                     + ", ".join(digests))
        return False, lines
    recorded = recorded_digest(workload, seed, size)
    if recorded is None:
        verdict = "unrecorded for this seed and size"
    elif recorded == digests[0]:
        verdict = "matches the seed commit"
    else:
        verdict = (f"MISMATCH with the seed commit ({recorded}); flagged, not a failure: "
                   "a change to the report must say why")
    kind = "report" if workload in VERIFY_SUITES else "results"
    lines.append(f"digest: {kind} sha256 {digests[0]} ({len(runs)} processes); {verdict}")
    return True, lines


# ---------------------------------------------------------------------------
# summaries


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def describe(name: str, values: list[float], unit: str) -> str:
    line = f"{name}: median {statistics.median(values):.6g} {unit}, n={len(values)}"
    tail = tail_percentile(values)
    if tail is None:
        return line + ", no percentile with ten samples beyond it"
    return line + f", p{tail[0]:.0f} {tail[1]:.6g} {unit}"


def slowest_case(runs: list[dict]) -> float:
    """The largest per-case median time; cases run in the same order in
    every process, so a per-process spike does not set the value."""
    return max(statistics.median(times) for times in zip(*(r["case_seconds"] for r in runs)))


def outcome_counts(runs: list[dict]) -> tuple[int, int, list[str]]:
    attempted = sum(r["cases"] for r in runs)
    failed = sum(r["cases"] - r["passed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    return attempted, failed, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'smoke' shrinks every workload for a schema test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "poisson_chaos" / "__init__.py").is_file():
        print("error: run from a poisson-chaos checkout; src/poisson_chaos is missing",
              file=sys.stderr)
        return 2
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    # byte-compile once so that no timed process pays for it
    compileall.compile_dir(str(root / "src"), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0)

    threads = len(os.sched_getaffinity(0))
    runner = Runner(root, out, args, threads)
    if args.trace:
        plain, traced = traced_runs(runner, args.seconds)
        runs = plain + traced
    else:
        setups, runs = timed_runs(runner, args.seconds)

    sha, dirty = git_state(root)
    held_out = json.loads((BENCH / "seeds.json").read_text(encoding="utf-8"))
    first = runs[0]
    manifest = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": first["numpy"],
        "nproc": threads, "POISSON_CHAOS_THREADS": threads,
        "workers": first["workers"], "git_sha": sha, "git_dirty": dirty,
        "src_sha256": source_digest(root),
        "fixed_work": {"cases": first["cases"], "replicates": first["replicates"],
                       "enum_states": first["enum_states"]},
        "held_out_seed": held_out["held_out_seed"],
    }
    print("manifest " + json.dumps(manifest))

    attempted, failed, errors = outcome_counts(runs)
    deterministic, lines = digest_lines(runs, args.workload, args.seed, args.size)
    for line in lines:
        print(line)
    print(f"fail_ratio: {failed / attempted:.6g} ({failed} of {attempted} cases "
          f"over {len(runs)} processes)")
    for error in errors:
        print(f"case error: {error}")

    metrics: dict[str, dict] = {}
    if args.trace:
        names = list(traced[0]["layers"])
        for name in names:
            values = [t["layers"][name] for t in traced]
            metrics[name] = {"value": statistics.median(values), "unit": layer_unit(name)}
        overhead = (statistics.median(t["wall_s"] for t in traced)
                    - statistics.median(p["wall_s"] for p in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for name, metric in metrics.items():
            print(f"{name}: {metric['value']:.6g} {metric['unit']}")
        print(f"tracing overhead: traced wall_s minus untraced wall_s = {overhead:.6g} s "
              f"({len(traced)} traced, {len(plain)} untraced processes)")
        for t in traced:
            print(f"spans: {Path(t['spans_file']).relative_to(root)}")
    else:
        samples = {name: [r[name] for r in runs] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        samples["setup_s"] = setups
        for name, unit in END_TO_END.items():
            if name == "slowest_case_s":
                value = slowest_case(runs)
                print(f"{name}: {value:.6g} {unit}, the largest per-case median over "
                      f"{len(runs)} processes")
            else:
                value = statistics.median(samples[name])
                print(describe(name, samples[name], unit))
            metrics[name] = {"value": value, "unit": unit}

    result = {"correct": failed == 0 and deterministic, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
